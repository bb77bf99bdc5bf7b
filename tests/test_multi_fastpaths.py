"""Edge fuzz for the array claim and birth solves of the K-person step.

:func:`~repro.multi.association.claim_candidates` takes most
``(slot, antenna)`` cells without a Hungarian solve, and
:func:`~repro.multi.association.candidate_fixes_batched` builds every
slot's combos from one index table and picks single births by a segment
argmax. Both must return exactly what the plain per-cell / per-slot
computations return, on the inputs where a shortcut could go wrong:

* claims: exact ties, tracks blocked on every candidate, more tracks
  than finite candidates, NaN-padded antennas, costs within the margin
  — each cell against :func:`assign_fixes` on that cell;
* births: random NaN patterns per (slot, antenna), caps of 1 and more,
  with and without ghost images, seeds and powers — each slot against
  a per-slot reference (``itertools.product`` combos, the greedy loop
  written out), and the one-slot least-squares call making one
  ``solve`` over the same rows in the same order.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.localize import LeastSquaresSolver, TGeometrySolver
from repro.geometry.antennas import t_array
from repro.multi import MultiWiTrack
from repro.multi import association
from repro.multi.association import (
    FixGate,
    assign_fixes,
    candidate_fixes,
    candidate_fixes_batched,
    claim_candidates,
    multipath_round_trips,
)
from repro.sim.room import through_wall_room

N_RX = 3
ARRAY = t_array()
ROOM = through_wall_room()
GATE = FixGate.from_room(ROOM)
IMAGES = MultiWiTrack(max_people=2, room=ROOM).ghost_images


# -- claims -----------------------------------------------------------------


def cell_reference(counts, predictions, gates, candidates):
    """:func:`assign_fixes` on every (slot, antenna) cell."""
    offsets = np.concatenate([[0], np.cumsum(counts)])
    claimed = np.full(predictions.shape, np.nan)
    mask = np.zeros(candidates.shape, dtype=bool)
    for s in range(len(counts)):
        t0, t1 = offsets[s], offsets[s + 1]
        for a in range(candidates.shape[1]):
            finite = np.flatnonzero(np.isfinite(candidates[s, a]))
            if t0 == t1 or len(finite) == 0:
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


def _claim_case(rng, kind, n_slots=5, k=4):
    counts = rng.integers(0, 5, n_slots)
    total = int(counts.sum())
    slot_of = np.repeat(np.arange(n_slots), counts)
    predictions = rng.uniform(3.0, 6.0, (total, N_RX))
    candidates = rng.uniform(3.0, 6.0, (n_slots, N_RX, k))
    gates = rng.uniform(0.1, 0.6, total)
    if kind == "ties":
        # Dyadic grid: equidistant candidates, shared argmins.
        predictions = rng.integers(24, 48, (total, N_RX)) / 8.0
        candidates = rng.integers(24, 48, (n_slots, N_RX, k)) / 8.0
        gates = rng.integers(1, 5, total) / 8.0
        for t in range(total):
            a = rng.integers(N_RX)
            candidates[slot_of[t], a, :2] = predictions[t, a] + np.array(
                [-0.25, 0.25])
    elif kind == "blocked":
        far = rng.random(total) < 0.5
        predictions[far] += 30.0
    elif kind == "crowded":
        counts = rng.integers(3, 7, n_slots)
        total = int(counts.sum())
        slot_of = np.repeat(np.arange(n_slots), counts)
        predictions = rng.uniform(3.0, 6.0, (total, N_RX))
        gates = rng.uniform(0.3, 2.0, total)
        candidates[:, :, 2:] = np.nan  # at most two finite candidates
    elif kind == "nan":
        candidates[rng.random((n_slots, N_RX)) < 0.4] = np.nan
        candidates[rng.random(candidates.shape) < 0.3] = np.nan
        predictions[rng.random((total, N_RX)) < 0.1] = np.nan
    elif kind == "margin":
        # Second-best costs within (and just outside) the fast-path
        # margin, and two tracks a hair apart on one candidate.
        for t in range(total):
            a = rng.integers(N_RX)
            d = rng.uniform(0.0, 0.1)
            eps = rng.choice([0.0, 1e-12, 1e-9, 5e-7, 1e-6, 2e-6])
            candidates[slot_of[t], a, :2] = predictions[t, a] + np.array(
                [d, -(d + eps)])
        dup = rng.random(total) < 0.3
        predictions[dup] += rng.choice([0.0, 1e-10, 9e-7], (int(dup.sum()), 1))
    return counts, predictions, gates, candidates


@pytest.mark.parametrize("kind", ["ties", "blocked", "crowded", "nan",
                                  "margin"])
def test_claims_match_per_cell_hungarian(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(150):
        counts, predictions, gates, candidates = _claim_case(rng, kind)
        claimed, mask = claim_candidates(predictions, gates, candidates,
                                         counts)
        ref_claimed, ref_mask = cell_reference(counts, predictions, gates,
                                               candidates)
        assert np.array_equal(claimed, ref_claimed, equal_nan=True)
        assert np.array_equal(mask, ref_mask)


def test_clear_cells_skip_the_hungarian(monkeypatch):
    calls = []
    real = association.linear_sum_assignment

    def counting(cost):
        calls.append(cost.shape)
        return real(cost)

    monkeypatch.setattr(association, "linear_sum_assignment", counting)
    # Two tracks, each near its own candidate; one slot blocked.
    predictions = np.array([[3.0, 4.0, 5.0], [6.0, 7.0, 8.0],
                            [30.0, 30.0, 30.0]])
    candidates = np.array([
        [[3.01, 6.02, np.nan], [4.01, 7.02, 9.0], [5.01, 8.02, np.nan]],
        [[3.0, np.nan, np.nan], [np.nan] * 3, [5.0, 5.1, 5.2]],
    ])
    claimed, _ = claim_candidates(predictions, np.full(3, 0.35),
                                  candidates, [2, 1])
    assert calls == []
    assert np.array_equal(claimed[:2], [[3.01, 4.01, 5.01],
                                        [6.02, 7.02, 8.02]])
    assert np.isnan(claimed[2]).all()
    # A contested candidate falls back to the exact solve.
    candidates[0, 0, :] = [4.5, np.nan, np.nan]
    claim_candidates(predictions, np.full(3, 2.0), candidates, [2, 1])
    assert calls == [(2, 1)]


def test_claims_with_no_tracks_or_candidates():
    claimed, mask = claim_candidates(np.zeros((0, N_RX)), np.zeros(0),
                                     np.full((2, N_RX, 3), 4.0), [0, 0])
    assert claimed.shape == (0, N_RX) and not mask.any()
    claimed, mask = claim_candidates(np.full((1, N_RX), 4.0), np.ones(1),
                                     np.zeros((1, N_RX, 0)), [1])
    assert np.isnan(claimed).all() and mask.shape == (1, N_RX, 0)


# -- births -----------------------------------------------------------------


def reference_fixes(tof_sets, solver, power_sets=None, max_fixes=None,
                    ghost_images=None, seeds=None, dedupe_m=0.4,
                    tolerance_m=0.6):
    """The per-slot birth solve, written out plainly."""
    tofs = [np.asarray(t, dtype=np.float64) for t in tof_sets]
    finite = [np.flatnonzero(~np.isnan(t)) for t in tofs]
    if any(len(f) == 0 for f in finite):
        return np.empty((0, 3))
    index = np.array(list(itertools.product(*finite)), dtype=np.intp)
    combos = np.column_stack([tofs[a][index[:, a]] for a in range(N_RX)])
    result = solver.solve(combos)
    pos = result.positions
    keep = result.valid & np.isfinite(pos).all(axis=1)
    keep &= GATE.admits(np.nan_to_num(pos, nan=1e9))
    pos, combos, index = pos[keep], combos[keep], index[keep]
    d_tx = np.linalg.norm(pos - ARRAY.tx.position[None, :], axis=1)
    d_rx = np.linalg.norm(pos[:, None, :] - ARRAY.rx_positions[None], axis=2)
    residuals = np.sqrt(np.mean((d_tx[:, None] + d_rx - combos) ** 2,
                                axis=1))
    keep = residuals <= GATE.max_residual_m
    pos, combos, index = pos[keep], combos[keep], index[keep]
    if power_sets is not None:
        powers = [np.asarray(p, dtype=np.float64) for p in power_sets]
        score = sum(10.0 * np.log10(np.maximum(powers[a][index[:, a]],
                                               1e-30)) for a in range(N_RX))
    else:
        score = -residuals[keep]
    kept, arcs = [], [[] for _ in range(N_RX)]
    alive = np.ones(len(score), dtype=bool)
    suppress = ghost_images is not None
    for seed in (seeds or []) if suppress else []:
        rt = multipath_round_trips(np.asarray(seed, dtype=np.float64),
                                   ARRAY.tx.position, ghost_images)
        for a in range(N_RX):
            arcs[a].extend(rt[:, a].tolist())
    limit = max_fixes if max_fixes is not None else len(score)
    while len(kept) < limit and alive.any():
        matches = np.zeros(len(score), dtype=np.int64)
        for a in range(N_RX):
            if arcs[a]:
                near = np.abs(combos[:, a][:, None] - np.array(arcs[a])).min(
                    axis=1)
                matches += near <= tolerance_m
        alive &= matches < 2
        if not alive.any():
            break
        idx = int(np.argmax(np.where(alive, score - 10.0 * matches,
                                     -np.inf)))
        alive[idx] = False
        p = pos[idx]
        if any(np.linalg.norm(p - q) <= dedupe_m for q in kept):
            continue
        kept.append(p)
        alive &= ~(index == index[idx][None, :]).any(axis=1)
        if suppress:
            rt = multipath_round_trips(p, ARRAY.tx.position, ghost_images)
            for a in range(N_RX):
                arcs[a].extend(rt[:, a].tolist())
    return np.stack(kept) if kept else np.empty((0, 3))


def _birth_slots(rng, n_slots, k):
    """Leftovers of people in the room, junk echoes, random NaN holes."""
    tofs = rng.uniform(2.0, 20.0, (n_slots, N_RX, k))
    powers = 10.0 ** rng.uniform(-7.0, -2.0, (n_slots, N_RX, k))
    seeds = []
    for s in range(n_slots):
        people = [np.array([rng.uniform(-2.5, 2.5), rng.uniform(1.0, 8.0),
                            rng.uniform(-1.0, 0.5)])
                  for _ in range(rng.integers(0, min(k, 2) + 1))]
        for j, p in enumerate(people):
            tofs[s, :, j] = ARRAY.round_trip_distances(p) + rng.normal(
                0.0, 0.03, N_RX)
        for a in range(N_RX):
            rng.shuffle(tofs[s, a])
        seeds.append(people[: rng.integers(0, len(people) + 1)])
    # Holes per cell, and whole antennas missing.
    tofs[rng.random(tofs.shape) < rng.uniform(0.0, 0.6)] = np.nan
    tofs[rng.random((n_slots, N_RX)) < 0.1] = np.nan
    # Equal powers make score ties; the first maximum must win.
    powers[rng.random(powers.shape) < 0.2] = 1e-4
    return tofs, powers, seeds


@pytest.mark.parametrize("cap", [1, 2, None])
@pytest.mark.parametrize("ghosts", [True, False])
@pytest.mark.parametrize("with_powers", [True, False])
def test_births_match_per_slot_reference(cap, ghosts, with_powers):
    rng = np.random.default_rng([cap or 0, ghosts, with_powers])
    solver = TGeometrySolver(ARRAY)
    images = IMAGES if ghosts else None
    for _ in range(25):
        k = int(rng.integers(1, 7))
        tofs, powers, seeds = _birth_slots(rng, int(rng.integers(1, 9)), k)
        if rng.random() < 0.3:
            seeds = None
        got = candidate_fixes_batched(
            tofs, solver, gate=GATE,
            power_slots=powers if with_powers else None, max_fixes=cap,
            ghost_images=images, seed_slots=seeds,
        )
        for s in range(len(tofs)):
            expected = reference_fixes(
                list(tofs[s]), solver,
                power_sets=list(powers[s]) if with_powers else None,
                max_fixes=cap, ghost_images=images,
                seeds=None if seeds is None else seeds[s],
            )
            assert got[s].shape == expected.shape
            assert np.array_equal(got[s], expected)


def test_ragged_one_slot_call_pads_with_nan():
    solver = TGeometrySolver(ARRAY)
    person = np.array([0.4, 4.0, -0.1])
    sets = [np.array([t]) for t in ARRAY.round_trip_distances(person)]
    sets[1] = np.append(sets[1], [7.5, np.nan])
    got = candidate_fixes(sets, solver, gate=GATE)
    assert np.array_equal(got, reference_fixes(sets, solver))
    assert np.linalg.norm(got[0] - person) < 1e-6


class _RecordingSolver(LeastSquaresSolver):
    def __init__(self, array):
        super().__init__(array)
        self.batches = []

    def solve(self, round_trips_m):
        self.batches.append(np.array(round_trips_m, dtype=np.float64))
        return super().solve(round_trips_m)


def test_least_squares_one_slot_call_is_one_ordered_solve():
    rng = np.random.default_rng(5)
    for _ in range(3):
        tofs, powers, _ = _birth_slots(rng, 1, 3)
        ours, theirs = _RecordingSolver(ARRAY), _RecordingSolver(ARRAY)
        got = candidate_fixes(list(tofs[0]), ours, gate=GATE,
                              power_sets=list(powers[0]), max_fixes=2)
        expected = reference_fixes(list(tofs[0]), theirs,
                                   power_sets=list(powers[0]), max_fixes=2)
        assert len(ours.batches) == len(theirs.batches) <= 1
        for a, b in zip(ours.batches, theirs.batches):
            assert np.array_equal(a, b)
        assert np.array_equal(got, expected)
