"""Accuracy of served outputs against simulator truth.

Truth follows the paper's Section 8(a) protocol as the repo's
experiment harness does: the body-center trajectory, shifted toward the
device by the subject's calibrated center-to-surface depth.

Every workload reports the same five numbers: per-axis median errors
(the Fig. 8 quantities) and CLEAR-MOT accuracy and precision. A
single-person session is one truth scored against one track; a K-person
session scores every truth against the served tracks, with per-axis
errors taken on the pairs CLEAR-MOT would match (nearest track within
the 1 m match threshold).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.metrics import mot_metrics, per_dimension_errors
from repro.sim.vicon import DepthCalibration

MATCH_M = 1.0


def surface_truth(trajectory, body, times_s: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Depth-compensated body center at ``times_s``, shape ``(n, 3)``."""
    calibration = DepthCalibration()
    depth = calibration.measure_depth(body, rng)
    return calibration.compensate(trajectory.resample(times_s), depth)


def track_stack(tracks, n_frames: int) -> np.ndarray:
    """Per-frame ``(track_id, position)`` lists as ``(n_ids, n, 3)``."""
    ids = sorted({tid for frame in tracks for tid, _ in frame})
    row = {tid: i for i, tid in enumerate(ids)}
    out = np.full((max(len(ids), 1), n_frames, 3), np.nan)
    for f, frame in enumerate(tracks):
        for tid, pos in frame:
            out[row[tid], f] = pos
    return out


def _matched_axis_errors(truths: np.ndarray, estimates: np.ndarray):
    """Per-axis errors of each truth against its nearest estimate."""
    diff = truths[:, None] - estimates[None]  # (T, E, n, 3)
    dist = np.linalg.norm(diff, axis=3)
    dist = np.where(np.isfinite(dist), dist, np.inf)
    nearest = np.argmin(dist, axis=1)  # (T, n)
    t_idx, f_idx = np.indices(nearest.shape)
    best = dist[t_idx, nearest, f_idx]
    ok = best <= MATCH_M
    return np.abs(diff[t_idx, nearest, f_idx])[ok]


@dataclass
class Accuracy:
    """Pooled accuracy over every scored session."""

    errors: list = field(default_factory=list)
    misses: int = 0
    false_positives: int = 0
    id_switches: int = 0
    num_truth: int = 0
    matches: int = 0
    motp_sum_m: float = 0.0
    sessions: int = 0

    def add(self, truths: np.ndarray, estimates: np.ndarray) -> None:
        """Score one session: truths ``(T, n, 3)``, estimates ``(E, n, 3)``."""
        mot = mot_metrics(truths, estimates, match_threshold_m=MATCH_M)
        self.misses += mot.misses
        self.false_positives += mot.false_positives
        self.id_switches += mot.id_switches
        self.num_truth += mot.num_truth
        self.matches += mot.matches
        if mot.matches:
            self.motp_sum_m += mot.motp_m * mot.matches
        if len(truths) == 1 and len(estimates) == 1:
            valid = np.isfinite(estimates[0]).all(axis=1)
            self.errors.append(
                per_dimension_errors(estimates[0][valid], truths[0][valid])
            )
        else:
            self.errors.append(_matched_axis_errors(truths, estimates))
        self.sessions += 1

    def metrics(self) -> dict[str, float]:
        errors = (np.concatenate(self.errors) if self.errors
                  else np.empty((0, 3)))
        med = (100.0 * np.median(errors, axis=0) if len(errors)
               else np.full(3, np.nan))
        mota = (1.0 - (self.misses + self.false_positives + self.id_switches)
                / self.num_truth) if self.num_truth else float("nan")
        return {
            "err_x_median_cm": float(med[0]),
            "err_y_median_cm": float(med[1]),
            "err_z_median_cm": float(med[2]),
            "mota": float(mota),
            "motp_cm": (100.0 * self.motp_sum_m / self.matches
                        if self.matches else float("nan")),
            "id_switches": self.id_switches,
            "scored_frames": int(len(errors)),
        }
