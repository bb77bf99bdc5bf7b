"""Tests for the distributed serving tier (repro.serve.shard).

The load-bearing properties:

* distributed serving (workers >= 2) is **result-identical** to
  single-process serving — and to N serial ``run_stream`` runs — for
  the same admission schedule, across staggered joins, mixed
  single/multi cohorts, evictions and slot recycling (fuzzed);
* a shard worker that raises mid-tick is excluded and its sessions
  fail over to surviving shards without losing a queued frame, staying
  on the session clock, while sessions on other shards are untouched
  bitwise;
* scheduling is lockstep: a session far behind its cohort mates stays
  in their cohort and drains one frame per tick, bitwise unchanged;
* a malformed frame (wrong shape or a real dtype) is refused at
  ``offer`` and never reaches a tick, so the engine — in-process or
  sharded — keeps serving everyone else bitwise;
* the front end averages each cohort's frames before the pipe: a step
  request carries one averaged slab per cohort, not the raw sweeps.
"""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.tracker import WiTrack
from repro.exec.pool import pool_available
from repro.kernels import enable_profiling, reset_profiling_override
from repro.multi import MultiScenario, MultiWiTrack
from repro.pipeline import PipelineResult
from repro.serve import ServingEngine, multi_session, single_session
from repro.serve.session import frame_shape
from repro.sim import Scenario
from repro.sim.body import HumanBody
from repro.sim.motion import non_colliding_walks, random_walk
from repro.sim.room import through_wall_room

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="platform cannot fork"
)


@pytest.fixture(scope="module")
def room():
    return through_wall_room()


@pytest.fixture(scope="module")
def short_walks(config, room):
    """Four short single-person recordings, synthesized once."""
    outputs = []
    for seed in range(4):
        walk = random_walk(
            room, np.random.default_rng(seed), duration_s=2.5
        )
        outputs.append(
            Scenario(walk, room=room, config=config, seed=seed + 50).run()
        )
    return outputs


@pytest.fixture(scope="module")
def multi_output(config, room):
    """A short 2-person recording, synthesized once."""
    walks = non_colliding_walks(
        room, np.random.default_rng(9), count=2, duration_s=2.5,
        min_separation_m=1.0,
    )
    people = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
    return MultiScenario(people, room=room, config=config, seed=9).run()


def frame_blocks(output, config, limit=None):
    spf = config.pipeline.sweeps_per_frame
    n = output.spectra.shape[1] // spf
    if limit is not None:
        n = min(n, limit)
    return [
        output.spectra[:, f * spf : (f + 1) * spf, :] for f in range(n)
    ]


def serial_single(config, range_bin_m, blocks):
    pipeline = WiTrack(config).pipeline(range_bin_m)
    return pipeline.run_stream(np.concatenate(blocks, axis=1))


def serial_multi(config, range_bin_m, blocks, room, max_people=2):
    pipeline = MultiWiTrack(
        config, max_people=max_people, room=room
    ).pipeline(range_bin_m)
    return pipeline.run_stream(np.concatenate(blocks, axis=1))


def assert_single_equal(result, reference):
    np.testing.assert_array_equal(
        result.frame_times_s, reference.frame_times_s
    )
    for name in ("tof_m", "raw_tof_m", "positions"):
        np.testing.assert_array_equal(
            getattr(result, name), getattr(reference, name)
        )
    np.testing.assert_array_equal(result.motion, reference.motion)


def assert_tracks_equal(result, reference):
    np.testing.assert_array_equal(
        result.frame_times_s, reference.frame_times_s
    )
    assert len(result.tracks) == len(reference.tracks)
    for ours, theirs in zip(result.tracks, reference.tracks):
        assert [tid for tid, _ in ours] == [tid for tid, _ in theirs]
        for (_, p1), (_, p2) in zip(ours, theirs):
            np.testing.assert_array_equal(p1, p2)


def prefix_result(result, frames):
    """The first ``frames`` output frames of a K-person result."""
    return PipelineResult(
        frame_times_s=result.frame_times_s[:frames],
        tracks=result.tracks[:frames],
    )


def drive(engine, plan):
    """Run admission/feeding/closing per plan; returns results by name.

    Same shape as the single-process serving tests: ``plan`` maps
    name -> dict(spec=..., blocks=..., start=step, evict=bool).
    """
    live = {}
    results = {}
    sessions = {}
    step = 0
    while len(results) < len(plan):
        for name, entry in plan.items():
            if name not in sessions and entry.get("start", 0) <= step:
                session = engine.admit(entry["spec"])
                sessions[name] = session
                live[name] = (session, iter(entry["blocks"]))
        for name in list(live):
            session, stream = live[name]
            block = next(stream, None)
            if block is None:
                del live[name]
                if plan[name].get("evict"):
                    engine.evict(session)
                    results[name] = None
                else:
                    results[name] = engine.close(session)
            else:
                engine.submit(session, block)
        engine.tick()
        step += 1
        assert step < 10_000, "drive loop ran away"
    return results, sessions


class TestDistributedIdentity:
    def test_distributed_equals_single_process_and_serial(
        self, config, room, short_walks, multi_output
    ):
        """The acceptance pin: workers>=2 is result-identical to
        workers=0 — and to serial references — for one admission
        schedule with staggered joins and mixed cohorts."""
        range_bin_m = short_walks[0].range_bin_m
        single_spec = single_session(config, range_bin_m)
        multi_spec = multi_session(
            config, range_bin_m, max_people=2, room=room
        )
        plan = {
            "a": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[0], config, 150)},
            "b": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[1], config, 150),
                  "start": 11},
            "c": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[2], config, 90),
                  "start": 23},
            "m": {"spec": multi_spec,
                  "blocks": frame_blocks(multi_output, config)},
        }
        local_results, _ = drive(ServingEngine(), dict(plan))
        with ServingEngine(workers=2) as engine:
            dist_results, sessions = drive(engine, dict(plan))
            shards = {s.cohort.shard for s in sessions.values()}
            assert len(shards) == 2  # the tier actually spread the load
        for name in ("a", "b", "c"):
            reference = serial_single(
                config, range_bin_m, plan[name]["blocks"]
            )
            assert_single_equal(dist_results[name], reference)
            assert_single_equal(dist_results[name], local_results[name])
            # Same frames consumed -> same latency sample count, even
            # though the wall-clock values differ.
            assert len(dist_results[name].latency.latencies_s) == len(
                local_results[name].latency.latencies_s
            )
        reference = serial_multi(
            config, range_bin_m, plan["m"]["blocks"], room
        )
        assert_tracks_equal(dist_results["m"], reference)
        assert_tracks_equal(dist_results["m"], local_results["m"])

    def test_homogeneous_sessions_spread_across_shards(
        self, config, short_walks
    ):
        """One spec must not collapse onto one shard: sibling cohorts."""
        spec = single_session(config, short_walks[0].range_bin_m)
        with ServingEngine(workers=2) as engine:
            sessions = [engine.admit(spec) for _ in range(4)]
            assert {s.cohort.shard for s in sessions} == {0, 1}
            # Same-shard sessions share a cohort (one vectorized tick).
            by_shard = {}
            for s in sessions:
                by_shard.setdefault(s.cohort.shard, set()).add(s.cohort.key)
            assert all(len(keys) == 1 for keys in by_shard.values())
            for s in sessions:
                engine.evict(s)

    def test_fallback_and_facade(self, config, short_walks):
        engine = ServingEngine()  # workers=0
        assert not engine.distributed
        assert engine.pool is None
        with pytest.raises(ValueError):
            ServingEngine(workers=-1)
        with ServingEngine(workers=1) as dist:
            assert dist.distributed
            session = dist.admit(
                single_session(config, short_walks[0].range_bin_m)
            )
            with pytest.raises(RuntimeError, match="shard workers"):
                dist.track_manager(session)


class TestChurnFuzz:
    def test_fuzzed_admissions_evictions_recycling(
        self, config, short_walks
    ):
        """Random churn across shards pins merged results to serial runs.

        Sessions come and go with random start steps, random stream
        lengths (sub-slices of the canonical recordings are valid
        independent streams), and random evictions; every cleanly
        closed session must match its own serial ``run_stream``
        reference bitwise, no matter which shard served it or whose
        slot it recycled.
        """
        rng = np.random.default_rng(1234)
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        all_blocks = [frame_blocks(out, config) for out in short_walks]
        plan = {}
        for i in range(10):
            source = all_blocks[int(rng.integers(len(all_blocks)))]
            length = int(rng.integers(30, 120))
            plan[f"s{i}"] = {
                "spec": spec,
                "blocks": source[:length],
                "start": int(rng.integers(0, 60)),
                "evict": bool(rng.random() < 0.3),
            }
        with ServingEngine(workers=3) as engine:
            results, sessions = drive(engine, plan)
            assert engine.num_sessions == 0
            assert not engine.scheduler.excluded_shards
        served_shards = {s.cohort.shard for s in sessions.values()}
        assert len(served_shards) >= 2  # churn really crossed shards
        checked = 0
        for name, entry in plan.items():
            if entry["evict"]:
                assert results[name] is None
                continue
            reference = serial_single(config, range_bin_m, entry["blocks"])
            assert_single_equal(results[name], reference)
            checked += 1
        assert checked >= 3  # the seed must leave enough clean closures


class TestWorkerFailure:
    def test_shard_raising_mid_tick_fails_over(
        self, config, short_walks
    ):
        """A crashed shard requeues its sessions onto survivors.

        The engine must stay up, sessions on surviving shards must be
        bitwise unperturbed, and failed-over sessions must keep every
        queued frame and the session clock — their post-failover output
        equals a fresh pipeline resumed at the failover frame, exactly
        the reset-boundary semantics of the sharded stream runner.
        """
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        blocks = [frame_blocks(out, config, 120) for out in short_walks]
        with ServingEngine(workers=2) as engine:
            sessions = [engine.admit(spec) for _ in blocks]
            by_shard = {}
            for s in sessions:
                by_shard.setdefault(s.cohort.shard, []).append(s)
            assert len(by_shard) == 2
            victim_shard = sessions[0].cohort.shard
            survivor_shard = next(w for w in by_shard if w != victim_shard)

            fail_at = 40
            for f in range(fail_at):
                for s, bl in zip(sessions, blocks):
                    engine.submit(s, bl[f])
                engine.tick()
            engine.pool.invoke(victim_shard, "fail_next_step")
            for f in range(fail_at, 120):
                for s, bl in zip(sessions, blocks):
                    engine.submit(s, bl[f])
                engine.tick()
            engine.drain()
            results = [engine.close(s) for s in sessions]

            scheduler = engine.scheduler
            assert scheduler.failovers == 1
            assert scheduler.excluded_shards == {victim_shard}
            assert engine.pool.live_workers() == [survivor_shard]

        for s, result, bl in zip(sessions, results, blocks):
            reference = serial_single(config, range_bin_m, bl)
            if s in by_shard[survivor_shard]:
                # Survivors: bitwise as if nothing happened.
                assert_single_equal(result, reference)
            else:
                # Failed over: every frame consumed, one extra priming
                # frame lost at the failover boundary, clock intact.
                assert s.frames_in == 120
                assert result.num_frames == reference.num_frames - 1
                split = np.flatnonzero(
                    np.diff(result.frame_times_s) > 0.013
                )
                assert len(split) == 1  # exactly one reset boundary
                boundary = int(split[0]) + 1
                prefix = reference.frame_times_s[:boundary]
                np.testing.assert_array_equal(
                    result.frame_times_s[:boundary], prefix
                )
                np.testing.assert_array_equal(
                    result.positions[:boundary],
                    reference.positions[:boundary],
                )
                # Suffix: a fresh pipeline resumed on the session clock.
                consumed = boundary + 1  # prefix outputs + initial priming
                resumed = WiTrack(config).pipeline(range_bin_m)
                resumed.reset(start_frame=consumed)
                suffix_ref = resumed.run_stream(
                    np.concatenate(bl[consumed:], axis=1)
                )
                np.testing.assert_array_equal(
                    result.frame_times_s[boundary:],
                    suffix_ref.frame_times_s,
                )
                np.testing.assert_array_equal(
                    result.positions[boundary:], suffix_ref.positions
                )

    def test_all_shards_failing_raises(self, config, short_walks):
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks = frame_blocks(short_walks[0], config, 8)
        with ServingEngine(workers=1) as engine:
            session = engine.admit(spec)
            engine.pool.invoke(0, "fail_next_step")
            engine.submit(session, blocks[0])
            with pytest.raises(RuntimeError, match="no live shard"):
                engine.tick()


class TestLockstepBacklog:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_backlogged_session_drains_in_lockstep(
        self, config, short_walks, workers
    ):
        """A session 12 frames behind its cohort mate is not split off:
        it stays in the cohort, drains one frame per tick, and serves
        bitwise as if it were alone."""
        spec = single_session(config, short_walks[0].range_bin_m)
        lead = frame_blocks(short_walks[0], config, 40)
        lagging = frame_blocks(short_walks[1], config, 52)
        with ServingEngine(workers=workers) as engine:
            a, b = engine.admit(spec), engine.admit(spec)
            cohort = b.cohort
            for block in lagging[:12]:
                assert b.offer(block)
            for f, block in enumerate(lead):
                assert a.offer(block)
                assert b.offer(lagging[12 + f])
                assert engine.tick() == 2  # one frame each, every tick
                assert b.pending == 12  # backlog held, not burst-drained
                assert a.cohort is b.cohort is cohort
            for backlog in range(11, -1, -1):
                assert engine.tick() == 1
                assert b.pending == backlog
                assert b.cohort is cohort
            engine.close(a)
            result = engine.close(b)
        with ServingEngine() as alone:
            session = alone.admit(spec)
            for block in lagging:
                alone.submit(session, block)
            alone.drain()
            reference = alone.close(session)
        assert_single_equal(result, reference)


class TestFrameValidation:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_malformed_offer_refused_engine_keeps_serving(
        self, config, short_walks, workers
    ):
        """A block of the wrong shape raises at ``offer`` and is not
        queued; the cohort mate's output is bitwise a clean run's."""
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks_a = frame_blocks(short_walks[0], config, 30)
        blocks_b = frame_blocks(short_walks[1], config, 30)

        def serve(bad_at):
            with ServingEngine(workers=workers) as engine:
                a, b = engine.admit(spec), engine.admit(spec)
                for f, (block_a, block_b) in enumerate(
                    zip(blocks_a, blocks_b)
                ):
                    engine.submit(a, block_a)
                    if f == bad_at:
                        bad = block_b[:2]  # one receive antenna short
                        with pytest.raises(ValueError, match="expects"):
                            b.offer(bad)
                        assert b.pending == 0
                    engine.submit(b, block_b)
                    engine.tick()
                return engine.close(a), engine.close(b)

        clean_a, clean_b = serve(bad_at=None)
        served_a, served_b = serve(bad_at=10)
        assert_single_equal(served_a, clean_a)
        assert_single_equal(served_b, clean_b)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_real_valued_offer_refused_cohort_mate_bitwise(
        self, config, short_walks, workers
    ):
        """A real-valued block of the right shape raises at ``offer``.

        Queued, it would set the cohort stacking buffer's dtype and drop
        the imaginary part of every cohort mate's frame that tick.
        """
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks_a = frame_blocks(short_walks[0], config, 30)
        blocks_b = frame_blocks(short_walks[1], config, 30)

        def serve(bad_at):
            with ServingEngine(workers=workers) as engine:
                a, b = engine.admit(spec), engine.admit(spec)
                for f, (block_a, block_b) in enumerate(
                    zip(blocks_a, blocks_b)
                ):
                    if f == bad_at:
                        with pytest.raises(ValueError, match="complex128"):
                            a.offer(np.abs(block_a))
                        assert a.pending == 0
                    engine.submit(a, block_a)
                    engine.submit(b, block_b)
                    engine.tick()
                return engine.close(b)

        clean_b = serve(bad_at=None)
        assert_single_equal(serve(bad_at=10), clean_b)


class TestAveragedStep:
    """The shard step carries frame-averaged slabs, one per cohort."""

    def test_noncontiguous_views_bitwise(self, config, short_walks):
        """Frames that are strided views into a recording serve bitwise."""
        range_bin_m = short_walks[0].range_bin_m
        spec = single_session(config, range_bin_m)
        plan = {
            name: {"spec": spec,
                   "blocks": frame_blocks(short_walks[i], config, 60),
                   "start": 3 * i}
            for i, name in enumerate("abc")
        }
        assert not plan["a"]["blocks"][5].flags.c_contiguous
        local_results, _ = drive(ServingEngine(), dict(plan))
        with ServingEngine(workers=1) as engine:
            dist_results, _ = drive(engine, dict(plan))
        for name, entry in plan.items():
            reference = serial_single(config, range_bin_m, entry["blocks"])
            assert_single_equal(dist_results[name], reference)
            assert_single_equal(dist_results[name], local_results[name])

    def test_single_and_k2_cohorts_on_one_shard(
        self, config, room, short_walks, multi_output
    ):
        """One step ships a single-person and a K=2 slab to one shard.

        Two K=2 sessions with staggered joins share their cohort; both
        cohorts ride in the same request and route back bitwise.
        """
        range_bin_m = short_walks[0].range_bin_m
        single_spec = single_session(config, range_bin_m)
        multi_spec = multi_session(
            config, range_bin_m, max_people=2, room=room
        )
        multi_blocks = frame_blocks(multi_output, config)
        plan = {
            "a": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[0], config, 80)},
            "b": {"spec": single_spec,
                  "blocks": frame_blocks(short_walks[1], config, 80),
                  "start": 5},
            "m1": {"spec": multi_spec, "blocks": multi_blocks},
            "m2": {"spec": multi_spec, "blocks": multi_blocks[20:],
                   "start": 7},
        }
        local_results, _ = drive(ServingEngine(), dict(plan))
        with ServingEngine(workers=1) as engine:
            dist_results, sessions = drive(engine, dict(plan))
            assert {s.cohort.shard for s in sessions.values()} == {0}
            assert len({s.cohort.key for s in sessions.values()}) == 2
        for name in ("a", "b"):
            reference = serial_single(
                config, range_bin_m, plan[name]["blocks"]
            )
            assert_single_equal(dist_results[name], reference)
            assert_single_equal(dist_results[name], local_results[name])
        for name in ("m1", "m2"):
            reference = serial_multi(
                config, range_bin_m, plan[name]["blocks"], room
            )
            assert_tracks_equal(dist_results[name], reference)
            assert_tracks_equal(dist_results[name], local_results[name])

    def test_failover_requeues_raw_blocks(self, config, room, short_walks,
                                          multi_output):
        """A K=2 cohort whose shard dies re-averages its requeued frames
        on the survivor, next to the single-person cohort living there.

        The survivor's sessions stay bitwise equal to in-process
        serving; the failed-over session consumes every frame, keeps
        its prefix bitwise and resumes on the session clock.
        """
        range_bin_m = short_walks[0].range_bin_m
        single_spec = single_session(config, range_bin_m)
        multi_spec = multi_session(
            config, range_bin_m, max_people=2, room=room
        )
        single_blocks = frame_blocks(short_walks[0], config, 100)
        multi_blocks = frame_blocks(multi_output, config, 100)
        n = min(len(single_blocks), len(multi_blocks))
        fail_at = 30

        def serve(workers):
            with ServingEngine(workers=workers) as engine:
                a = engine.admit(single_spec)
                m = engine.admit(multi_spec)
                for f in range(n):
                    if workers and f == fail_at:
                        assert a.cohort.shard != m.cohort.shard
                        engine.pool.invoke(m.cohort.shard, "fail_next_step")
                    engine.submit(a, single_blocks[f])
                    engine.submit(m, multi_blocks[f])
                    engine.tick()
                if workers:
                    assert engine.scheduler.failovers == 1
                    assert a.cohort.shard == m.cohort.shard
                assert m.frames_in == n
                return engine.close(a), engine.close(m)

        local_a, local_m = serve(0)
        dist_a, dist_m = serve(2)
        assert_single_equal(dist_a, local_a)
        assert dist_m.num_frames == local_m.num_frames - 1
        boundary = fail_at - 1  # outputs before the failed step
        assert_tracks_equal(
            prefix_result(dist_m, boundary), prefix_result(local_m, boundary)
        )
        resumed = MultiWiTrack(config, max_people=2, room=room).pipeline(
            range_bin_m
        )
        resumed.reset(start_frame=fail_at)
        suffix = resumed.run_stream(
            np.concatenate(multi_blocks[fail_at:n], axis=1)
        )
        assert_tracks_equal(
            PipelineResult(
                frame_times_s=dist_m.frame_times_s[boundary:],
                tracks=dist_m.tracks[boundary:],
            ),
            suffix,
        )

    def test_step_request_is_one_averaged_slab(self, config, short_walks):
        """IPC pin: a step request is the averaged slab plus a small
        envelope — shipping the raw sweep blocks would be 5× larger."""
        spec = single_session(config, short_walks[0].range_bin_m)
        n_rx, _, n_bins = frame_shape(spec)
        blocks = [frame_blocks(out, config, 6) for out in short_walks]
        with ServingEngine(workers=1) as engine:
            pool = engine.pool
            sessions = [engine.admit(spec) for _ in blocks]
            request_bytes = []
            submit = pool.submit

            def counting_submit(worker, kind, target, *args, **kwargs):
                before = pool.transport_stats(worker)["bytes_pickled"]
                submit(worker, kind, target, *args, **kwargs)
                after = pool.transport_stats(worker)["bytes_pickled"]
                if target == "step":
                    request_bytes.append(after - before)

            pool.submit = counting_submit
            for f in range(6):
                for session, bl in zip(sessions, blocks):
                    engine.submit(session, bl[f])
                assert engine.tick() == len(sessions)
        slab_bytes = len(sessions) * n_rx * n_bins * 16
        assert len(request_bytes) == 6
        assert max(request_bytes) <= slab_bytes + 4096

    def test_round_trip_covers_shard_tick(self, config, short_walks):
        """The round trip is stamped before ``submit``, so it can never
        be shorter than the shard tick it contains (no negative IPC)."""
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks = [frame_blocks(out, config, 40) for out in short_walks]
        with ServingEngine(workers=1) as engine:
            sessions = [engine.admit(spec) for _ in blocks]
            for f in range(40):
                for session, bl in zip(sessions, blocks):
                    engine.submit(session, bl[f])
                engine.tick()
            stats = engine.scheduler.shard_stats[0]
            assert len(stats.round_trip_s) == len(stats.tick_s) == 40
            for round_trip, tick in zip(stats.round_trip_s, stats.tick_s):
                assert round_trip >= tick

    def test_profile_keeps_frame_average_row(self, config, short_walks):
        """With profiling on, the front end's average shows up in the
        merged distributed profile next to the shard's rows."""
        spec = single_session(config, short_walks[0].range_bin_m)
        blocks = frame_blocks(short_walks[0], config, 10)
        enable_profiling()
        try:
            with ServingEngine(workers=1) as engine:
                session = engine.admit(spec)
                for block in blocks:
                    engine.submit(session, block)
                    engine.tick()
                profile = engine.stage_profile().as_dict()
        finally:
            reset_profiling_override()
        assert profile["frame_average"]["calls"] == len(blocks)
        assert "fused_tick" in profile or any(
            "BackgroundSubtract" in name for name in profile
        )
