"""Golden K-person outputs: association and serving pinned to recorded bits.

The fused and staged K-person paths share one birth solve
(:func:`~repro.multi.association.candidate_fixes_batched`) and one claim
solve (:func:`~repro.multi.association.claim_candidates`), so a
fused-against-staged parity test alone can no longer catch a change to
either. These tests hold both to outputs recorded in ``tests/golden/``
from the earlier per-slot implementation (per-slot combo products, one
Hungarian solve per (slot, antenna) cell):

* seeded random birth-solve inputs — NaN patterns, caps of 1 and more,
  with and without ghost images, seeds and powers — with the fixes the
  per-slot :func:`candidate_fixes` returned, and a few least-squares
  one-slot calls with the exact rows their single ``solve`` received;
* seeded random claim cells — exact ties, all-blocked tracks, more
  tracks than candidates, NaN padding, near-equal costs — with the
  claims :func:`assign_fixes` made per cell;
* a staged :class:`~repro.multi.tracks.TrackManager` over synthetic
  candidate frames, once with the closed-form solver and no powers,
  once with the least-squares solver;
* short K=2 :class:`~repro.multi.MultiScenario` recordings (a range
  crossing, a late entry, a random pair) served in one cohort, staged
  and fused.

Track outputs are stored as per-frame track ids and positions
(:func:`~repro.multi.tracks.tracks_to_arrays`), and every comparison is
bitwise. Re-record (deliberately, never to make a failure pass) with
``PYTHONPATH=src python tests/test_multi_golden.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.config import default_config
from repro.core.localize import LeastSquaresSolver, TGeometrySolver
from repro.geometry.antennas import t_array
from repro.kernels.tick import enable_fusion, reset_fusion_override
from repro.multi import MultiScenario, MultiWiTrack
from repro.multi.association import (
    FixGate,
    assign_fixes,
    candidate_fixes,
    candidate_fixes_batched,
    claim_candidates,
)
from repro.multi.tracks import (
    TrackManager,
    TrackManagerConfig,
    tracks_to_arrays,
)
from repro.serve import ServingEngine, multi_session
from repro.sim.body import HumanBody
from repro.sim.motion import (
    Trajectory,
    non_colliding_walks,
    stand_still,
    waypoint_walk,
)
from repro.sim.room import through_wall_room

GOLDEN = Path(__file__).parent / "golden"
BIRTHS = GOLDEN / "multi_births.npz"
CLAIMS = GOLDEN / "multi_claims.npz"
SERVING = GOLDEN / "multi_serving.npz"
MANAGERS = GOLDEN / "multi_managers.npz"

N_RX = 3
BIRTH_SLOTS = 8
BIRTH_K = 6
#: (cap, powers, ghost images, seeds) per birth case family; cap -1 is
#: "no cap".
BIRTH_FAMILIES = [
    (cap, powers, ghost, seeds)
    for cap in (1, 2, -1)
    for powers in (True, False)
    for ghost in (True, False)
    for seeds in (True, False)
]
BIRTH_ROUNDS = 3
LSQ_CASES = 4
LSQ_K = 3
CLAIM_CASES = 60
CLAIM_SLOTS = 6
CLAIM_K = 4
MANAGER_FRAMES = 30
MANAGER_K = 3
#: Staggered admission steps of the three served recordings.
SERVE_STARTS = (0, 5, 11)
RECORDINGS = ("crossing", "late_entry", "random")


def _room():
    return through_wall_room()


def _ghost_images(room):
    return MultiWiTrack(max_people=2, room=room).ghost_images


# -- input generators -------------------------------------------------------


def _birth_slot(rng, array, k):
    """One slot's leftovers: noisy real round trips plus junk, NaN holes."""
    tofs = np.full((N_RX, k), np.nan)
    powers = np.full((N_RX, k), np.nan)
    people = [
        np.array([rng.uniform(-2.8, 2.8), rng.uniform(1.0, 9.0),
                  rng.uniform(-1.0, 0.6)])
        for _ in range(rng.integers(0, 3))
    ]
    rts = [array.round_trip_distances(p) for p in people]
    for a in range(N_RX):
        values = [rt[a] + rng.normal(0.0, 0.04) for rt in rts]
        values += list(rng.uniform(2.0, 22.0, rng.integers(0, k)))
        rng.shuffle(values)
        values = values[:k]
        tofs[a, : len(values)] = values
        powers[a, : len(values)] = 10.0 ** rng.uniform(-7.0, -2.0,
                                                       len(values))
        holes = rng.random(k) < 0.15
        tofs[a, holes] = np.nan
        powers[a, holes] = np.nan
    seeds = people[: rng.integers(0, len(people) + 1)] + [
        np.array([rng.uniform(-2.0, 2.0), rng.uniform(2.0, 8.0), -0.2])
        for _ in range(rng.integers(0, 2))
    ]
    return tofs, powers, seeds


def birth_inputs(seed=0):
    """Seeded birth-solve cases: ``(family, tofs, powers, seed lists)``."""
    rng = np.random.default_rng(seed)
    array = t_array()
    cases = []
    for family in BIRTH_FAMILIES:
        for _ in range(BIRTH_ROUNDS):
            slots = [_birth_slot(rng, array, BIRTH_K)
                     for _ in range(BIRTH_SLOTS)]
            cases.append((
                family,
                np.stack([t for t, _, _ in slots]),
                np.stack([p for _, p, _ in slots]),
                [s for _, _, s in slots],
            ))
    return cases


def claim_inputs(seed=0):
    """Seeded claim cases: ``(counts, predictions, gates, candidates)``.

    Half the cases draw every value from a 1/8 m grid, so exact ties
    (two candidates equidistant from a prediction, two predictions at
    one candidate) are common; the rest add near-equal costs, tracks
    blocked on every candidate, and more tracks than candidates.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for case in range(CLAIM_CASES):
        counts = rng.integers(0, 5, CLAIM_SLOTS)
        total = int(counts.sum())
        grid = case % 2 == 0
        if grid:
            predictions = rng.integers(16, 48, (total, N_RX)) / 8.0
            candidates = rng.integers(
                16, 48, (CLAIM_SLOTS, N_RX, CLAIM_K)) / 8.0
            gates = rng.integers(1, 6, total) / 8.0
        else:
            predictions = rng.uniform(2.0, 6.0, (total, N_RX))
            candidates = rng.uniform(2.0, 6.0, (CLAIM_SLOTS, N_RX, CLAIM_K))
            gates = rng.uniform(0.05, 0.8, total)
            slot_of = np.repeat(np.arange(CLAIM_SLOTS), counts)
            # Near-equal costs: a candidate mirrored around a prediction
            # within a few ulps, and a second track a hair away.
            for t in range(total):
                if rng.random() < 0.3:
                    a = rng.integers(N_RX)
                    j = rng.integers(CLAIM_K)
                    d = candidates[slot_of[t], a, j] - predictions[t, a]
                    candidates[slot_of[t], a, (j + 1) % CLAIM_K] = (
                        predictions[t, a] - d + rng.choice([0.0, 1e-15, 1e-9])
                    )
            dup = rng.random(total) < 0.2
            predictions[dup] = predictions[dup] + rng.choice(
                [0.0, 1e-12, 1e-7], (int(dup.sum()), 1)
            )
        blocked_tracks = rng.random(total) < 0.15
        predictions[blocked_tracks] += 40.0
        nan_tracks = rng.random(total) < 0.05
        predictions[nan_tracks, rng.integers(N_RX)] = np.nan
        candidates[rng.random(candidates.shape) < 0.25] = np.nan
        cases.append((counts, predictions, gates, candidates))
    return cases


def reference_claims(counts, predictions, gates, candidates):
    """Per-cell :func:`assign_fixes`, exactly as the per-slot loop ran it."""
    offsets = np.concatenate([[0], np.cumsum(counts)])
    claimed = np.full(predictions.shape, np.nan)
    mask = np.zeros(candidates.shape, dtype=bool)
    for s in range(len(counts)):
        t0, t1 = offsets[s], offsets[s + 1]
        if t0 == t1:
            continue
        for a in range(candidates.shape[1]):
            finite = np.flatnonzero(np.isfinite(candidates[s, a]))
            if len(finite) == 0:
                continue
            pairs, _, _ = assign_fixes(
                predictions[t0:t1, a : a + 1],
                candidates[s, a][finite, None],
                gates[t0:t1],
            )
            for t, c in pairs:
                claimed[t0 + t, a] = candidates[s, a, finite[c]]
                mask[s, a, finite[c]] = True
    return claimed, mask


class _RecordingSolver(LeastSquaresSolver):
    """Least-squares solver that keeps every batch it is asked to solve."""

    def __init__(self, array):
        super().__init__(array)
        self.batches = []

    def solve(self, round_trips_m):
        self.batches.append(np.array(round_trips_m, dtype=np.float64))
        return super().solve(round_trips_m)


def lsq_inputs(seed=1):
    """One-slot least-squares birth cases (few rows: the solver is slow)."""
    rng = np.random.default_rng(seed)
    array = t_array()
    return [_birth_slot(rng, array, LSQ_K) for _ in range(LSQ_CASES)]


def manager_frames(seed=2):
    """Per-frame candidate sets of two walkers, the second entering late.

    Noisy true round trips, an occasional junk echo, and dropped
    detections, in NaN-padded ``(n_rx, K)`` sets with their powers.
    """
    rng = np.random.default_rng(seed)
    array = t_array()
    frames = []
    for f in range(MANAGER_FRAMES):
        people = [np.array([-1.0 + 0.02 * f, 3.0 + 0.03 * f, -0.2])]
        if f >= 6:
            people.append(np.array([1.2 - 0.02 * f, 6.5 - 0.04 * f, -0.3]))
        tofs = np.full((N_RX, MANAGER_K), np.nan)
        powers = np.full((N_RX, MANAGER_K), np.nan)
        for a in range(N_RX):
            values = [array.round_trip_distances(p)[a]
                      + rng.normal(0.0, 0.02) for p in people]
            if rng.random() < 0.3:
                values.append(rng.uniform(3.0, 16.0))
            values = [v for v in values if rng.random() > 0.1]
            tofs[a, : len(values)] = values
            powers[a, : len(values)] = 10.0 ** rng.uniform(
                -6.0, -3.0, len(values))
        frames.append((tofs, powers))
    return frames


def run_manager(least_squares):
    """Staged manager over :func:`manager_frames`; per-frame tracks.

    The least-squares run ranks births by power, the closed-form run
    (without powers) by round-trip residual.
    """
    array = t_array()
    solver = (LeastSquaresSolver(array) if least_squares
              else TGeometrySolver(array))
    manager = TrackManager(0.0125, solver, config=TrackManagerConfig(
        confirm_hits=2), gate=FixGate.from_room(_room()),
        ghost_images=_ghost_images(_room()))
    out = []
    for tofs, powers in manager_frames():
        tracks = manager.step(list(tofs),
                              list(powers) if least_squares else None)
        out.append([(t.track_id, t.position.copy()) for t in tracks])
    return tracks_to_arrays(out)


# -- recordings -------------------------------------------------------------


def _late_walk(room):
    """Stands (invisible) for 1.5 s, then walks in."""
    y0 = room.front_wall_y or 0.0
    stand = stand_still(np.array([1.8, y0 + 6.5, -0.25]), duration_s=1.5)
    walk = waypoint_walk(np.array([[1.8, y0 + 6.5], [0.6, y0 + 3.0]]),
                         speed_mps=1.1, torso_z=-0.25)
    times = np.concatenate([stand.times_s,
                            stand.times_s[-1] + 0.0125 + walk.times_s])
    positions = np.concatenate([stand.positions, walk.positions])
    return Trajectory(times, positions, "late-entry")


def recording_walks(name, room):
    """The two trajectories of one golden K=2 recording."""
    y0 = room.front_wall_y or 0.0
    if name == "crossing":
        # Ranges sweep through each other; the people stay 2+ m apart.
        return [
            waypoint_walk(np.array([[-2.0, y0 + 2.5], [-1.0, y0 + 6.0]]),
                          speed_mps=1.2, torso_z=-0.2),
            waypoint_walk(np.array([[2.0, y0 + 6.0], [1.0, y0 + 2.5]]),
                          speed_mps=1.2, torso_z=-0.3),
        ]
    if name == "late_entry":
        return [
            waypoint_walk(np.array([[-1.5, y0 + 2.0], [-0.5, y0 + 5.5]]),
                          speed_mps=1.0, torso_z=-0.2),
            _late_walk(room),
        ]
    return non_colliding_walks(room, np.random.default_rng(31), count=2,
                               duration_s=3.0, min_separation_m=1.0)


def recording_frames(name, config, room):
    walks = recording_walks(name, room)
    people = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
    seed = 40 + RECORDINGS.index(name)
    out = MultiScenario(people, room=room, config=config, seed=seed).run()
    spf = config.pipeline.sweeps_per_frame
    frames = [out.spectra[:, f * spf : (f + 1) * spf, :]
              for f in range(out.num_sweeps // spf)]
    return frames, out.range_bin_m


def serve(recordings, config, room, range_bin_m, fused):
    """Serve every recording in one K=2 cohort, staggered; track lists."""
    enable_fusion(fused)
    try:
        engine = ServingEngine()
        spec = multi_session(config, range_bin_m, max_people=2, room=room)
        live, results, step = {}, {}, 0
        while len(results) < len(recordings):
            for i, start in enumerate(SERVE_STARTS):
                if step == start:
                    live[i] = (engine.admit(spec), iter(recordings[i]))
            for i in list(live):
                session, frames = live[i]
                block = next(frames, None)
                if block is None:
                    results[i] = engine.close(session).tracks
                    del live[i]
                else:
                    engine.offer(session, block)
            engine.tick()
            step += 1
        return [results[i] for i in range(len(recordings))]
    finally:
        reset_fusion_override()


# -- tests ------------------------------------------------------------------


def _fixes(flat, counts, case):
    offsets = np.concatenate([[0], np.cumsum(counts[case])])
    return [flat[case][offsets[s] : offsets[s + 1]]
            for s in range(len(counts[case]))]


@pytest.fixture(scope="module")
def births():
    return np.load(BIRTHS)


class TestGoldenBirths:
    def test_inputs_regenerate(self, births):
        for i, (_, tofs, powers, _) in enumerate(birth_inputs()):
            assert np.array_equal(tofs, births["tofs"][i], equal_nan=True)
            assert np.array_equal(powers, births["powers"][i],
                                  equal_nan=True)

    @pytest.mark.parametrize("one_slot", [False, True],
                             ids=["cohort", "one_slot"])
    def test_birth_solve_matches_golden(self, births, one_slot):
        room = _room()
        solver = TGeometrySolver(t_array())
        gate = FixGate.from_room(room)
        images = _ghost_images(room)
        for i, (family, tofs, powers, seeds) in enumerate(birth_inputs()):
            cap, use_powers, use_ghost, use_seeds = family
            kwargs = dict(
                gate=gate,
                max_fixes=None if cap < 0 else cap,
                ghost_images=images if use_ghost else None,
            )
            expected = _fixes(births["fixes"], births["counts"], i)
            if one_slot:
                got = [
                    candidate_fixes(
                        list(tofs[s]), solver,
                        power_sets=list(powers[s]) if use_powers else None,
                        seed_positions=seeds[s] if use_seeds else None,
                        **kwargs,
                    )
                    for s in range(len(tofs))
                ]
            else:
                got = candidate_fixes_batched(
                    tofs, solver,
                    power_slots=powers if use_powers else None,
                    seed_slots=seeds if use_seeds else None,
                    **kwargs,
                )
            for s, (g, e) in enumerate(zip(got, expected)):
                assert g.shape == e.shape, (i, s, family)
                assert np.array_equal(g, e), (i, s, family)

    def test_least_squares_one_slot_call(self, births):
        """The staged call with a non-row-independent solver: one
        ``solve`` over exactly the recorded rows, same fixes."""
        gate = FixGate.from_room(_room())
        row_counts = births["lsq_row_counts"]
        row_offsets = np.concatenate([[0], np.cumsum(row_counts)])
        fix_offsets = np.concatenate([[0], np.cumsum(births["lsq_counts"])])
        for i, (tofs, powers, _) in enumerate(lsq_inputs()):
            solver = _RecordingSolver(t_array())
            got = candidate_fixes(list(tofs), solver, gate=gate,
                                  power_sets=list(powers), max_fixes=2)
            rows = births["lsq_rows"][row_offsets[i] : row_offsets[i + 1]]
            if row_counts[i]:
                assert len(solver.batches) == 1, i
                assert np.array_equal(solver.batches[0], rows), i
            else:
                assert solver.batches == [], i
            expected = births["lsq_fixes"][fix_offsets[i] : fix_offsets[i + 1]]
            assert np.array_equal(got, expected), i


class TestGoldenClaims:
    def test_claims_match_golden(self):
        golden = np.load(CLAIMS)
        offsets = np.concatenate([[0], np.cumsum(golden["totals"])])
        for i, (counts, predictions, gates, candidates) in enumerate(
            claim_inputs()
        ):
            t0, t1 = offsets[i], offsets[i + 1]
            assert np.array_equal(predictions, golden["predictions"][t0:t1],
                                  equal_nan=True), i
            claimed, mask = claim_candidates(
                predictions, gates, candidates, counts
            )
            assert np.array_equal(claimed, golden["claimed"][t0:t1],
                                  equal_nan=True), i
            assert np.array_equal(mask, golden["mask"][i]), i


@pytest.mark.parametrize("least_squares", [False, True],
                         ids=["closed_form", "least_squares"])
def test_staged_manager_matches_golden(least_squares):
    golden = np.load(MANAGERS)
    prefix = "lsq" if least_squares else "tgeo"
    for key, value in run_manager(least_squares).items():
        assert np.array_equal(value, golden[f"{prefix}_{key}"]), key


@pytest.fixture(scope="module")
def served_recordings(config):
    room = _room()
    frames, range_bin_m = [], None
    for name in RECORDINGS:
        f, range_bin_m = recording_frames(name, config, room)
        frames.append(f)
    return frames, range_bin_m, room


@pytest.mark.parametrize("fused", [False, True], ids=["staged", "fused"])
def test_served_tracks_match_golden(served_recordings, config, fused):
    frames, range_bin_m, room = served_recordings
    golden = np.load(SERVING)
    results = serve(frames, config, room, range_bin_m, fused)
    for name, tracks in zip(RECORDINGS, results):
        arrays = tracks_to_arrays(tracks)
        for key, value in arrays.items():
            assert np.array_equal(value, golden[f"{name}_{key}"]), (
                name, key)


# -- recorder ---------------------------------------------------------------


def _pad_fix_lists(per_case):
    counts = np.array([[len(f) for f in case] for case in per_case])
    flat_cases = [np.concatenate(case) if any(len(f) for f in case)
                  else np.zeros((0, 3)) for case in per_case]
    width = max(len(f) for f in flat_cases)
    flat = np.full((len(per_case), width, 3), np.nan)
    for i, f in enumerate(flat_cases):
        flat[i, : len(f)] = f
    return flat, counts


def record() -> None:
    """Write the golden files from the current implementation."""
    GOLDEN.mkdir(exist_ok=True)
    room = _room()
    solver = TGeometrySolver(t_array())
    gate = FixGate.from_room(room)
    images = _ghost_images(room)

    cases = birth_inputs()
    per_case = []
    for family, tofs, powers, seeds in cases:
        cap, use_powers, use_ghost, use_seeds = family
        per_case.append([
            candidate_fixes(
                list(tofs[s]), solver, gate=gate,
                power_sets=list(powers[s]) if use_powers else None,
                max_fixes=None if cap < 0 else cap,
                ghost_images=images if use_ghost else None,
                seed_positions=seeds[s] if use_seeds else None,
            )
            for s in range(len(tofs))
        ])
    fixes, counts = _pad_fix_lists(per_case)

    lsq_rows, lsq_row_counts, lsq_fixes = [], [], []
    for tofs, powers, _ in lsq_inputs():
        rec = _RecordingSolver(t_array())
        lsq_fixes.append(candidate_fixes(list(tofs), rec, gate=gate,
                                         power_sets=list(powers),
                                         max_fixes=2))
        assert len(rec.batches) <= 1
        rows = rec.batches[0] if rec.batches else np.zeros((0, N_RX))
        lsq_rows.append(rows)
        lsq_row_counts.append(len(rows))
    np.savez_compressed(
        BIRTHS,
        tofs=np.stack([c[1] for c in cases]),
        powers=np.stack([c[2] for c in cases]),
        fixes=fixes,
        counts=counts,
        lsq_rows=np.concatenate(lsq_rows),
        lsq_row_counts=np.array(lsq_row_counts),
        lsq_fixes=np.concatenate(lsq_fixes),
        lsq_counts=np.array([len(f) for f in lsq_fixes]),
    )

    claims = claim_inputs()
    outputs = [reference_claims(*c) for c in claims]
    np.savez_compressed(
        CLAIMS,
        totals=np.array([len(c[1]) for c in claims]),
        predictions=np.concatenate([c[1] for c in claims]),
        claimed=np.concatenate([o[0] for o in outputs]),
        mask=np.stack([o[1] for o in outputs]),
    )

    np.savez_compressed(MANAGERS, **{
        f"{prefix}_{key}": value
        for prefix, least_squares in (("tgeo", False), ("lsq", True))
        for key, value in run_manager(least_squares).items()
    })

    config = default_config()
    frames, range_bin_m = [], None
    for name in RECORDINGS:
        f, range_bin_m = recording_frames(name, config, room)
        frames.append(f)
    staged = serve(frames, config, room, range_bin_m, fused=False)
    fused = serve(frames, config, room, range_bin_m, fused=True)
    arrays = {}
    for name, s_tracks, f_tracks in zip(RECORDINGS, staged, fused):
        s_arr, f_arr = tracks_to_arrays(s_tracks), tracks_to_arrays(f_tracks)
        for key in s_arr:
            assert np.array_equal(s_arr[key], f_arr[key]), (name, key)
            arrays[f"{name}_{key}"] = s_arr[key]
    np.savez_compressed(SERVING, **arrays)


if __name__ == "__main__":
    record()
