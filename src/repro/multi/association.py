"""Data association: candidate 3D fixes and frame-to-track assignment.

With K candidate TOFs per antenna there are up to ``K^n_rx`` ways to pick
one per antenna, and only a few of them correspond to real people; the
rest are *ghosts* that mix one person's echo on one antenna with another
person's on the next. Three physical gates kill most ghosts:

* the ellipsoid intersection must be geometrically feasible (the solver's
  own validity mask);
* the solved point must lie inside the monitored volume — a mixed combo
  puts the closed-form z (which is extremely sensitive to the k3-vs-r0
  balance) far above the ceiling or below the floor;
* with more than three antennas, the over-constrained residual must stay
  small.

Surviving fixes are deduplicated and handed to the tracker, where
temporal continuity (gating + Hungarian assignment against per-track
Kalman predictions) resolves whatever ambiguity is left.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..core.localize import LeastSquaresSolver, TGeometrySolver
from ..sim.room import Room

Solver = TGeometrySolver | LeastSquaresSolver

#: Score cost (dB) per fix component that lies on an accepted fix's
#: predicted multipath arc — soft enough that a real person crossing one
#: arc still wins when her other components are sound.
_GHOST_PENALTY_DB = 10.0


@dataclass(frozen=True)
class FixGate:
    """Feasible-volume and consistency gate for candidate fixes.

    Attributes:
        x_halfwidth_m: maximum |x| of a fix.
        y_min_m: minimum depth into the room.
        y_max_m: maximum depth.
        z_min_m: lowest feasible z (floor, with margin).
        z_max_m: highest feasible z (ceiling, with margin).
        max_residual_m: maximum RMS round-trip residual of the fix
            against the TOF combo that produced it.
    """

    x_halfwidth_m: float = 3.6
    y_min_m: float = 0.3
    y_max_m: float = 11.9
    z_min_m: float = -1.5
    z_max_m: float = 1.3
    max_residual_m: float = 0.35

    @classmethod
    def from_room(cls, room: Room, margin_m: float = 0.35) -> "FixGate":
        """Gate matched to a room's volume, shrunk *inward* at the walls.

        The inward margin is load-bearing, not cosmetic: a single-bounce
        multipath ghost solves to a point *on its mirror plane* (its
        round trips average out to the wall), so excluding a thin band
        at the side walls, back wall, and ceiling kills every such ghost
        wholesale — and costs nothing, because a real torso center
        physically cannot be within ~0.35 m of a wall.
        """
        y0 = room.front_wall_y or 0.0
        return cls(
            x_halfwidth_m=room.width_m / 2.0 - margin_m,
            y_min_m=max(y0, 0.1),
            y_max_m=y0 + room.depth_m - margin_m,
            z_min_m=room.floor_z - margin_m,
            z_max_m=room.floor_z + room.height_m - margin_m,
            max_residual_m=cls.max_residual_m,
        )

    def admits(self, positions: np.ndarray) -> np.ndarray:
        """Boolean in-volume mask for positions of shape ``(n, 3)``."""
        x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
        return (
            (np.abs(x) <= self.x_halfwidth_m)
            & (y >= self.y_min_m)
            & (y <= self.y_max_m)
            & (z >= self.z_min_m)
            & (z <= self.z_max_m)
        )


def multipath_round_trips(
    position: np.ndarray,
    tx_position: np.ndarray,
    image_positions: np.ndarray,
) -> np.ndarray:
    """Predicted round trips of a reflector's wall-bounce images.

    A dynamic-multipath echo of a person at ``position`` travels
    Tx -> body -> wall -> Rx; with the receive antennas mirrored through
    each bounce plane, its path length is ``|Tx - p| + |image_rx - p|``.

    Args:
        position: reflector position, shape ``(3,)``.
        tx_position: transmit antenna position.
        image_positions: receive antennas mirrored through every bounce
            plane, shape ``(n_planes, n_rx, 3)``.

    Returns:
        Image round trips, shape ``(n_planes, n_rx)``.
    """
    d_tx = float(np.linalg.norm(position - tx_position))
    d_img = np.linalg.norm(image_positions - position[None, None, :], axis=2)
    return d_tx + d_img


def stack_candidate_sets(
    sets: Sequence[np.ndarray], width: int | None = None
) -> np.ndarray:
    """Per-antenna candidate sets as one NaN-padded ``(n_rx, K)`` array.

    Sets may differ in length; the short ones are padded with NaN, which
    every consumer treats as "no candidate". ``width`` fixes ``K``
    (longer sets are cut), so a power table lines up with its TOFs.
    """
    rows = [np.asarray(s, dtype=np.float64).ravel() for s in sets]
    if width is None:
        width = max((len(r) for r in rows), default=0)
    out = np.full((len(rows), width), np.nan)
    for a, row in enumerate(rows):
        out[a, : min(len(row), width)] = row[:width]
    return out


def candidate_fixes(
    tof_sets: Sequence[np.ndarray],
    solver: Solver,
    gate: FixGate | None = None,
    power_sets: Sequence[np.ndarray] | None = None,
    dedupe_m: float = 0.4,
    max_fixes: int | None = None,
    ghost_images: np.ndarray | None = None,
    ghost_tolerance_m: float = 0.6,
    seed_positions: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Solve every cross-antenna TOF combination into gated 3D fixes.

    After the feasibility gates, fixes are selected greedily by total
    echo power under *per-antenna candidate exclusivity*: once a fix
    claims an antenna's candidate, no other fix may reuse it. The
    strongest (closest) person's pure combo always outscores any ghost
    that borrows one of her echoes, so picking it first consumes her
    candidates and blocks those ghosts; the next pick is then the next
    person's pure combo, and so on — successive interference
    cancellation at the association level.

    This is the one-slot call of :func:`candidate_fixes_batched`.

    Args:
        tof_sets: per-antenna candidate round-trip distances for one
            frame (NaNs are dropped); one entry per receive antenna.
        solver: the localization solver of the deployed array.
        gate: feasibility gate; a permissive default when omitted.
        power_sets: per-antenna echo power of each TOF candidate,
            aligned with ``tof_sets``; enables the power-greedy
            selection (without it, ties break by round-trip residual).
        dedupe_m: surviving fixes closer than this collapse into one.
        max_fixes: keep at most this many fixes (best score first).
        ghost_images: receive antennas mirrored through the room's
            bounce planes, shape ``(n_planes, n_rx, 3)``. When given, a
            later fix is vetoed if two or more of its TOF components sit
            where an already-accepted fix's wall-bounce multipath must
            land — the geometric kill for persistent multipath ghosts.
            (One matching component is allowed: a real second person can
            legitimately cross one antenna's multipath arc, but the
            image geometry differs per antenna, so she cannot sit on
            two arcs at once while a pure ghost matches on all.)
        ghost_tolerance_m: round-trip slack of the multipath match
            (covers surface wander and in-wall jitter).
        seed_positions: already-known reflector positions (e.g. live
            tracks) whose multipath arcs seed the ghost evidence before
            any fix is accepted.

    Returns:
        Candidate positions, shape ``(n_fixes, 3)`` (possibly empty).
    """
    tofs = stack_candidate_sets(tof_sets)
    powers = None
    if power_sets is not None:
        powers = stack_candidate_sets(power_sets, tofs.shape[1])[None]
    return candidate_fixes_batched(
        tofs[None],
        solver,
        gate=gate,
        power_slots=powers,
        dedupe_m=dedupe_m,
        max_fixes=max_fixes,
        ghost_images=ghost_images,
        ghost_tolerance_m=ghost_tolerance_m,
        seed_slots=[seed_positions],
    )[0]


@functools.cache
def _combo_table(k: int, n_rx: int) -> np.ndarray:
    """Every per-antenna index combination, lexicographic (last fastest).

    The order of ``itertools.product(range(K), repeat=n_rx)``, cached
    (read-only) per shape: a serving cohort asks for the same table
    every tick.
    """
    table = np.indices((k,) * n_rx).reshape(n_rx, -1).T
    table.flags.writeable = False
    return table


def _seed_arcs(seeds, array, ghost_images: np.ndarray) -> list[np.ndarray]:
    """Multipath arcs of each seed position (one call per seed)."""
    if seeds is None:
        return []
    return [
        multipath_round_trips(
            np.asarray(seed, dtype=np.float64), array.tx.position, ghost_images
        )
        for seed in seeds
    ]


def _arc_matches(
    combos: np.ndarray, arcs: list[np.ndarray], ghost_tolerance_m: float
) -> np.ndarray:
    """Per combo, the antennas whose TOF lies on one of the arcs.

    ``arcs`` are :func:`multipath_round_trips` outputs, each
    ``(n_planes, n_rx)``; the nearest arc is a minimum, exact in any
    order.
    """
    nearest = np.min(
        np.abs(combos[:, None, None, :] - np.asarray(arcs)[None]),
        axis=(1, 2),
    )
    return np.count_nonzero(nearest <= ghost_tolerance_m, axis=1)


def _greedy_select(
    positions: np.ndarray,
    combos: np.ndarray,
    index_combos: np.ndarray,
    score: np.ndarray,
    array,
    dedupe_m: float,
    max_fixes: int | None,
    ghost_images: np.ndarray | None,
    ghost_tolerance_m: float,
    seed_positions: Sequence[np.ndarray] | None,
) -> np.ndarray:
    """Power-greedy exclusive selection over one slot's gated combos.

    The general tail of :func:`candidate_fixes_batched`, run per slot
    when more than one fix may be kept (or a score is NaN); the
    single-birth case is this loop's first round, done for every slot
    at once.
    """
    # Iterative greedy selection. Each round re-scores the surviving
    # combos against the multipath predictions of everything accepted so
    # far: one matching component costs ``_GHOST_PENALTY_DB`` (a pure
    # combo of a real person always outranks a mixed combo that borrows
    # a multipath echo), two or more is a hard veto (that *is* the
    # multipath ghost). Exclusivity then consumes the winner's
    # components so no later fix can reuse them.
    kept: list[np.ndarray] = []
    alive = np.ones(len(score), dtype=bool)
    suppress = ghost_images is not None and len(ghost_images) > 0
    arcs = _seed_arcs(seed_positions, array, ghost_images) if suppress else []
    limit = max_fixes if max_fixes is not None else int(alive.sum())
    while len(kept) < limit and np.any(alive):
        penalties = np.zeros(len(score))
        if suppress:
            matches = np.zeros(len(score), dtype=np.int64)
            if arcs:
                matches = _arc_matches(combos, arcs, ghost_tolerance_m)
            alive &= matches < 2
            penalties = _GHOST_PENALTY_DB * matches.astype(np.float64)
        if not np.any(alive):
            break
        adjusted = np.where(alive, score - penalties, -np.inf)
        idx = int(np.argmax(adjusted))
        alive[idx] = False
        p = positions[idx]
        if any(np.linalg.norm(p - q) <= dedupe_m for q in kept):
            continue
        kept.append(p)
        components = index_combos[idx]
        overlap = (index_combos == components[None, :]).any(axis=1)
        alive &= ~overlap
        if suppress:
            arcs.append(
                multipath_round_trips(p, array.tx.position, ghost_images)
            )
    if not kept:
        return np.empty((0, 3))
    return np.stack(kept)


def candidate_fixes_batched(
    tof_slots: np.ndarray,
    solver: Solver,
    gate: FixGate | None = None,
    power_slots: np.ndarray | None = None,
    dedupe_m: float = 0.4,
    max_fixes: int | None = None,
    ghost_images: np.ndarray | None = None,
    ghost_tolerance_m: float = 0.6,
    seed_slots: Sequence[Sequence[np.ndarray] | None] | None = None,
) -> list[np.ndarray]:
    """:func:`candidate_fixes` for many slots in one array solve.

    Row order: every slot's combos are one gather from a cached
    ``K**n_rx`` index table (:func:`_combo_table`). ``np.nonzero`` of
    the all-antennas-present mask walks the slots in order and, within
    a slot, the table in lexicographic order, which is the order of a
    cartesian product over that slot's present candidates. So the one
    localization ``solve`` sees each slot's rows as a one-slot call
    would, and a one-slot call is one ``solve`` over exactly those rows
    — which a solver whose rows are not independent (the warm-started
    least squares) needs. Every later step (the volume gate, then the
    residual and power score on the rows that pass it) is elementwise
    per row, so each slot's surviving rows are bitwise what it would
    get alone.

    Selection is per slot. With ``max_fixes=1`` (the serving default)
    it is the greedy's first round for every slot at once: seed-arc
    penalties, then a per-slot segment argmax that, like ``np.argmax``,
    takes the first of equal maxima. Larger caps (and NaN scores) run
    :func:`_greedy_select` per slot.

    Args:
        tof_slots: leftover candidate round trips, shape
            ``(n_slots, n_rx, K)``, NaN where there is none.
        solver: localization solver shared by all slots.
        power_slots: candidate powers aligned with ``tof_slots`` (or
            None).
        seed_slots: per slot, the ghost-veto seed positions (or None).
        gate, dedupe_m, max_fixes, ghost_images, ghost_tolerance_m: as
            in :func:`candidate_fixes`, shared by all slots.

    Returns:
        One ``(n_fixes, 3)`` array per slot, empty where nothing
        survived.
    """
    gate = gate or FixGate()
    tofs = np.asarray(tof_slots, dtype=np.float64)
    n_slots, n_rx, k = tofs.shape
    out: list[np.ndarray] = [np.empty((0, 3))] * n_slots
    table = _combo_table(k, n_rx)
    present = ~np.isnan(tofs)
    full = present[:, 0, table[:, 0]]
    for a in range(1, n_rx):
        full &= present[:, a, table[:, a]]
    row_slot, row_combo = np.nonzero(full)
    antennas = np.arange(n_rx)
    combos = tofs[row_slot[:, None], antennas, table[row_combo]]

    if len(combos) == 0:
        return out
    result = solver.solve(combos)
    positions = result.positions
    # Non-finite rows fail every gate comparison as well.
    rows = np.flatnonzero(result.valid & gate.admits(positions))

    # Round-trip consistency: re-project each in-volume fix.
    array = solver.array
    positions, combos = positions[rows], combos[rows]
    d_tx = np.linalg.norm(positions - array.tx.position[None, :], axis=1)
    d_rx = np.linalg.norm(
        positions[:, None, :] - array.rx_positions[None, :, :], axis=2
    )
    residuals = np.sqrt(
        np.mean((d_tx[:, None] + d_rx - combos) ** 2, axis=1)
    )
    keep = residuals <= gate.max_residual_m
    rows = rows[keep]
    if len(rows) == 0:
        return out
    positions, combos = positions[keep], combos[keep]
    residuals = residuals[keep]
    row_slot, index_combos = row_slot[rows], table[row_combo[rows]]

    if power_slots is not None:
        powers = np.asarray(power_slots, dtype=np.float64)[
            row_slot[:, None], antennas, index_combos
        ]
        floor = 1e-30
        score = sum(
            10.0 * np.log10(np.maximum(powers[:, a], floor))
            for a in range(n_rx)
        )
    else:
        score = -residuals

    # Slot segments of the (slot-major) surviving rows.
    starts = np.flatnonzero(np.diff(row_slot, prepend=-1))
    ends = np.append(starts[1:], len(rows))
    segments = list(zip(row_slot[starts], starts, ends))
    seeds = seed_slots if seed_slots is not None else [None] * n_slots
    if max_fixes != 1 or np.isnan(score).any():
        for s, r0, r1 in segments:
            out[s] = _greedy_select(
                positions[r0:r1],
                combos[r0:r1],
                index_combos[r0:r1],
                score[r0:r1],
                array,
                dedupe_m=dedupe_m,
                max_fixes=max_fixes,
                ghost_images=ghost_images,
                ghost_tolerance_m=ghost_tolerance_m,
                seed_positions=seeds[s],
            )
        return out

    matches = np.zeros(len(rows), dtype=np.int64)
    if ghost_images is not None and len(ghost_images) > 0:
        for s, r0, r1 in segments:
            arcs = _seed_arcs(seeds[s], array, ghost_images)
            if arcs:
                matches[r0:r1] = _arc_matches(
                    combos[r0:r1], arcs, ghost_tolerance_m
                )
    adjusted = np.where(
        matches < 2, score - _GHOST_PENALTY_DB * matches, -np.inf
    )
    best = np.maximum.reduceat(adjusted, starts)
    first = np.minimum.reduceat(
        np.where(adjusted == np.repeat(best, ends - starts),
                 np.arange(len(rows)), len(rows)),
        starts,
    )
    for (s, _, _), b, idx in zip(segments, best, first):
        if b > -np.inf:
            out[s] = positions[idx : idx + 1]
    return out


def assign_fixes(
    predicted: np.ndarray,
    fixes: np.ndarray,
    gate_m: float | np.ndarray,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Gated Hungarian assignment of fixes to track predictions.

    Args:
        predicted: predicted track positions, shape ``(n_tracks, 3)``;
            non-finite rows never match.
        fixes: candidate fixes, shape ``(n_fixes, 3)``.
        gate_m: maximum assignment distance — a scalar, or one gate per
            track (a coasting track's gate grows with its uncertainty).

    Returns:
        ``(pairs, unmatched_tracks, unmatched_fixes)`` where ``pairs``
        is a list of ``(track_index, fix_index)`` tuples.
    """
    n_tracks = len(predicted)
    n_fixes = len(fixes)
    if n_tracks == 0 or n_fixes == 0:
        return [], list(range(n_tracks)), list(range(n_fixes))
    gates = np.broadcast_to(
        np.asarray(gate_m, dtype=np.float64), (n_tracks,)
    )
    cost = np.linalg.norm(
        predicted[:, None, :] - fixes[None, :, :], axis=2
    )
    cost = np.where(np.isfinite(cost), cost, 1e6)
    blocked = cost > gates[:, None]
    rows, cols = linear_sum_assignment(np.where(blocked, 1e6, cost))
    pairs = [
        (int(r), int(c))
        for r, c in zip(rows, cols)
        if not blocked[r, c]
    ]
    matched_tracks = {r for r, _ in pairs}
    matched_fixes = {c for _, c in pairs}
    unmatched_tracks = [t for t in range(n_tracks) if t not in matched_tracks]
    unmatched_fixes = [f for f in range(n_fixes) if f not in matched_fixes]
    return pairs, unmatched_tracks, unmatched_fixes


#: Cost of a blocked or padded claim cell (as in :func:`assign_fixes`).
_BLOCKED_COST = 1e6

#: How much a row's best claim cost must beat every alternative in its
#: row (and the blocked cost) before :func:`claim_candidates` takes it
#: without a Hungarian solve. Orders of magnitude above the rounding
#: of an exact solver on these few-by-few matrices of values at most
#: ``_BLOCKED_COST`` (~1e-9), far below any real TOF spacing.
_CLAIM_MARGIN_M = 1e-6


def claim_candidates(
    predictions: np.ndarray,
    gates: np.ndarray,
    candidates: np.ndarray,
    counts: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-antenna gated claims of many slots' tracks, in one array pass.

    Each ``(slot, antenna)`` cell is the 1D assignment
    :func:`assign_fixes` makes between the slot's track predictions on
    that antenna and its finite candidates (``|diff|`` equals its 1-point
    L2 norm bitwise). Most cells need no Hungarian solve: when every
    track of the cell is either blocked on all candidates or has one
    candidate strictly cheaper than its others by more than
    ``_CLAIM_MARGIN_M`` (and than the blocked cost), and those argmins
    are distinct, the row minima reach the sum-of-row-minima lower
    bound of every assignment, and any other assignment costs more by
    over the margin. That unique optimum is what any exact solver
    returns — with more tracks than candidates too, since leaving a
    live track unassigned costs a blocked pad instead of its minimum —
    so it is taken directly. Every other cell runs
    ``linear_sum_assignment`` on exactly the matrix ``assign_fixes``
    builds.

    Args:
        predictions: predicted round trips of every slot's tracks,
            slot-major, shape ``(n_tracks, n_rx)``.
        gates: per-track claim gates, shape ``(n_tracks,)``.
        candidates: candidate round trips, shape ``(n_slots, n_rx, K)``,
            non-finite where there is none.
        counts: tracks per slot (summing to ``n_tracks``).

    Returns:
        ``(claimed, claimed_mask)``: the claimed round trip per track
        and antenna (NaN where none), shape ``(n_tracks, n_rx)``, and
        which candidates were claimed, shape ``(n_slots, n_rx, K)``.
    """
    n_slots, n_rx, k = candidates.shape
    claimed = np.full((len(predictions), n_rx), np.nan)
    claimed_mask = np.zeros(candidates.shape, dtype=bool)
    if len(predictions) == 0 or k == 0:
        return claimed, claimed_mask
    slot_of = np.repeat(np.arange(n_slots), counts)
    finite = np.isfinite(candidates)
    cost = np.abs(predictions[:, :, None] - candidates[slot_of])
    cost = np.where(np.isfinite(cost), cost, _BLOCKED_COST)
    blocked = cost > gates[:, None, None]
    padded = np.where(blocked, _BLOCKED_COST, cost)

    # Fast cells: rows with a clear, unblocked argmin over the finite
    # candidates; rows blocked everywhere claim nothing.
    usable = finite[slot_of]
    ranked = np.where(usable, padded, np.inf)
    best = ranked.argmin(axis=2)
    low = ranked.min(axis=2)
    second = (
        np.partition(ranked, 1, axis=2)[:, :, 1] if k > 1 else np.inf
    )
    live = (usable & ~blocked).any(axis=2)
    with np.errstate(invalid="ignore"):  # inf - inf where nothing is live
        clear = (low < _BLOCKED_COST - _CLAIM_MARGIN_M) & (
            second - low > _CLAIM_MARGIN_M
        )
    cell = slot_of[:, None] * n_rx + np.arange(n_rx)
    taken = np.bincount(
        (cell * k + best)[live], minlength=n_slots * n_rx * k
    ).reshape(n_slots, n_rx, k)
    slow = (taken > 1).any(axis=2).ravel()
    slow[cell[live & ~clear]] = True
    fast = live & ~slow[cell]
    t_idx, a_idx = np.nonzero(fast)
    c_idx = best[t_idx, a_idx]
    claimed[t_idx, a_idx] = candidates[slot_of[t_idx], a_idx, c_idx]
    claimed_mask[slot_of[t_idx], a_idx, c_idx] = True

    offsets = np.concatenate([[0], np.cumsum(counts)])
    for flat in np.flatnonzero(slow):
        s, a = divmod(int(flat), n_rx)
        t0 = offsets[s]
        cols = np.flatnonzero(finite[s, a])
        sub = slice(t0, offsets[s + 1])
        rows, picks = linear_sum_assignment(padded[sub, a][:, cols])
        for r, c in zip(rows, picks):
            if not blocked[t0 + r, a, cols[c]]:
                claimed[t0 + r, a] = candidates[s, a, cols[c]]
                claimed_mask[s, a, cols[c]] = True
    return claimed, claimed_mask
