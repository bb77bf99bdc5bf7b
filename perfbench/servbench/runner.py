"""One benchmark run: set-up, the measured loop, checks, metrics.

``run(workload, seed, seconds, trace)`` returns the result object the
command prints: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end set with ``trace=0``, the per-layer set with
``trace=1``), plus a ``report`` with sample counts, the fingerprint and
the numbers that are printed but not gated.
"""

from __future__ import annotations

import gc
import os
import statistics
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.kernels.profile import enable_profiling, reset_profiling_override
from repro.serve import ServingEngine

from .calibrate import speed, time_kernel
from .env import rss_mb, rss_peak_mb
from .tracing import Tracer, instrument
from .workloads import SCALES, WORKLOADS, Client, Scale, Workload

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("served_fps", "frames/s"),
    ("wall_fps", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("rss_growth_mb", "MB"),
    ("err_x_median_cm", "cm"),
    ("err_y_median_cm", "cm"),
    ("err_z_median_cm", "cm"),
    ("mota", "ratio"),
    ("motp_cm", "cm"),
)

#: (name, unit) of every per-layer metric, grouped by module.
PER_LAYER = (
    ("sim.synth_ms_per_frame", "ms"),
    ("serve.offer_us", "us"),
    ("serve.tick_ms", "ms"),
    ("serve.sched_self_ms", "ms"),
    ("serve.frames_per_tick", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.close_ms", "ms"),
    ("serve.retained_bytes_per_frame", "B"),
    ("pipeline.tick_ms", "ms"),
    ("pipeline.rows_per_call", "count"),
    ("kernels.fused_tick_ms", "ms"),
    ("kernels.fused_cancel_ms", "ms"),
    ("kernels.fused_associate_ms", "ms"),
    ("kernels.bytes_per_frame", "B"),
    ("multi.trackbank_step_ms", "ms"),
    ("multi.birth_solve_ms", "ms"),
    ("multi.birth_solves_per_tick", "count"),
    ("multi.births_per_session", "count"),
    ("multi.id_switches", "count"),
    ("exec.ipc_ms_per_step", "ms"),
    ("exec.shard_tick_ms", "ms"),
    ("exec.bytes_per_step", "B"),
    ("exec.round_trips_per_step", "count"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

#: Calibration kernel calls before and after each set-up.
SETUP_CALLS = 8


@dataclass
class Phase:
    """A set-up engine and what its measured loop produced."""

    workload: Workload
    engine: ServingEngine
    client: Client
    setup_s: float
    #: Set-up wall seconds as measured, before rescaling.
    setup_raw_s: float = 0.0
    steps: int = 0
    frames: int = 0
    offered: int = 0
    refused: int = 0
    wall_s: float = 0.0
    window_start: float = 0.0
    window_end: float = 0.0
    #: Per measurement window with frames served: (wall s, engine s,
    #: frames served, host speed).
    windows: list | None = None
    #: Host speed of every window, in loop order (latency windows too).
    speeds: list | None = None
    rss_growth_mb: float | None = None
    rss_peak_mb: float | None = None
    counts: dict | None = None
    instrumented: object = None

    @property
    def served_fps(self) -> float:
        """Median over windows of frames per second of engine time, at
        the reference host speed."""
        return statistics.median(f / e / s for _, e, f, s in self.windows)

    @property
    def wall_fps(self) -> float:
        """Median over windows of frames per wall second, at the
        reference host speed."""
        return statistics.median(f / w / s for w, _, f, s in self.windows)


def set_up(name: str, seed: int, scale: Scale, tracer=None) -> Phase:
    """Inputs, engine (and shard workers), first admissions, warm-up.

    With a tracer, span wrappers are bound after the shard workers fork
    (so nothing records inside them) and stay bound until
    :func:`release`. The calibration kernel runs just before and just
    after, outside the timed span; ``setup_s`` is at their host speed.
    """
    before = [time_kernel() for _ in range(SETUP_CALLS)]
    t0 = perf_counter()
    workload = WORKLOADS[name](seed, scale)
    workload.build()
    engine = ServingEngine(workers=workload.workers)
    phase = Phase(workload, engine, Client(engine, tracer), 0.0)
    if tracer is not None:
        phase.instrumented = instrument(tracer)
        phase.instrumented.__enter__()
    workload.start(phase.client)
    for _ in range(scale.warmup_steps):
        workload.step(phase.client)
    phase.setup_raw_s = perf_counter() - t0
    after = [time_kernel() for _ in range(SETUP_CALLS)]
    phase.setup_s = phase.setup_raw_s * speed(before + after)
    return phase


def _calibrate(samples: list[float]) -> float:
    """Time the calibration kernel into ``samples``; returns the wall
    seconds it took, its untimed warm-up call included."""
    t0 = perf_counter()
    samples.append(time_kernel())
    return perf_counter() - t0


def measure(phase: Phase, seconds: float) -> None:
    """The closed lockstep loop, in whole windows, for ``seconds``, until
    every scored session has been served and ``growth_steps`` run.

    The workload's settling steps run first, unmeasured.

    Memory is read at the end of set-up and once more at the first
    window boundary past ``growth_steps`` measured steps: a fixed amount
    of work, so a faster program is not charged for retaining the extra
    frames it serves.

    Every ``calib_steps`` steps the calibration kernel runs; its time is
    kept out of the window's wall time, and the median of its times in
    a window gives that window's host speed."""
    workload, client = phase.workload, phase.client
    tracer = client.tracer
    rss0 = rss_mb()
    for _ in range(workload.settle_steps()):
        if not workload.step(client):
            break
    client.open_window(workload.live())
    frames0 = client.consumed
    offered0, refused0 = client.offered, client.refused
    counts0 = dict(tracer.counts) if tracer is not None else {}
    t0 = phase.window_start = perf_counter()
    steps = 0
    more = True
    marks = [(t0, client.engine_s, client.consumed)]
    speeds = []
    calibration_s = 0.0
    scale = workload.scale
    growth_steps = scale.growth_steps
    while more:
        samples = []
        for _ in range(scale.window_steps):
            if tracer is None:
                more = workload.step(client)
            else:
                index = tracer.begin("step")
                more = workload.step(client)
                tracer.end(index)
            if not more:
                break
            steps += 1
            if steps % scale.calib_steps == 0:
                calibration_s += _calibrate(samples)
        if not samples:
            calibration_s += _calibrate(samples)
        speeds.append(speed(samples))
        now = perf_counter()
        marks.append((now - calibration_s, client.engine_s, client.consumed))
        if phase.rss_growth_mb is None and steps >= growth_steps:
            phase.rss_growth_mb = rss_mb() - rss0
            phase.rss_peak_mb = rss_peak_mb()
        if (now - t0 >= seconds and workload.ready()
                and phase.rss_growth_mb is not None):
            break
        client.cut(workload.live())
    if phase.rss_growth_mb is None:  # the inputs ran out first
        phase.rss_growth_mb = rss_mb() - rss0
        phase.rss_peak_mb = rss_peak_mb()
    phase.windows = [
        (b[0] - a[0], b[1] - a[1], b[2] - a[2], s)
        for a, b, s in zip(marks, marks[1:], speeds) if b[2] > a[2]
    ]
    phase.speeds = speeds
    phase.window_end = perf_counter()
    phase.wall_s = phase.window_end - t0 - calibration_s
    client.close_window(workload.live())
    if tracer is not None:
        phase.counts = {k: v - counts0.get(k, 0)
                        for k, v in tracer.counts.items()}
    phase.steps = steps
    phase.frames = client.consumed - frames0
    phase.offered = client.offered - offered0
    phase.refused = client.refused - refused0


def detach(phase: Phase) -> None:
    """Unbind any span wrappers and stop recording spans."""
    phase.client.tracer = None
    if phase.instrumented is not None:
        phase.instrumented.__exit__(None, None, None)
        phase.instrumented = None


def release(phase: Phase) -> None:
    """Stop the shard workers and unbind any span wrappers."""
    phase.engine.shutdown()
    detach(phase)


def _tear_down(phase: Phase) -> None:
    release(phase)
    phase.workload = phase.client = phase.engine = None
    gc.collect()


def _window_quantiles_ms(windows: list[list[float]], q: float,
                         speeds: list[float]) -> list:
    """Each window's ``q`` latency quantile, in milliseconds, at the
    reference host speed (``speeds`` per window; a trailing window past
    them takes the last)."""
    return [
        1e3 * float(np.quantile(np.asarray(w), q))
        * speeds[min(i, len(speeds) - 1)]
        for i, w in enumerate(windows) if w
    ]


def _quieter(p99s: list[float]) -> float:
    """The lower quartile of the windows' p99 latencies.

    Host stalls and slowed cores hit 1–5% of ticks for seconds at a
    time, so whenever they pass 1% a window's p99 is theirs: in 800-step
    windows on ``multi_churn`` the p99s split into ~6 ms and 10–24 ms,
    and their median spread 0.45 of itself over ten seeds. The lower
    quartile reads the quieter windows. The "inclusive" quartile does
    not drift with the number of windows, which grows with the
    program's speed."""
    if len(p99s) < 2:
        return p99s[0]
    return statistics.quantiles(p99s, n=4, method="inclusive")[0]


def _checked(phase: Phase, perturb: bool) -> dict:
    """The bitwise check and accuracy, after every session closed."""
    workload = phase.workload
    identical, frames = workload.check(perturb)
    accuracy = workload.accuracy().metrics()
    finite = all(np.isfinite(v) for v in accuracy.values())
    failed = phase.refused + (0 if identical else min(frames, phase.offered))
    return {
        "identical": identical,
        "accuracy": accuracy,
        "correct": identical and finite and phase.refused == 0,
        "failed": failed,
    }


def run_end_to_end(name: str, seed: int, seconds: float, scale: Scale,
                   perturb: bool = False) -> dict:
    setups, raw_setups = [], []
    phase = None
    for _ in range(scale.setups):
        if phase is not None:
            _tear_down(phase)
        phase = set_up(name, seed, scale)
        setups.append(phase.setup_s)
        raw_setups.append(phase.setup_raw_s)
    measure(phase, seconds)
    try:
        phase.workload.finish(phase.client)
        check = _checked(phase, perturb)
    finally:
        release(phase)
    lat = phase.client.latencies
    p50s = _window_quantiles_ms(lat, 0.5, phase.speeds)
    p99s = _window_quantiles_ms(lat, 0.99, phase.speeds)
    ones = [1.0] * len(phase.speeds)
    raw = {
        "served_fps": statistics.median(f / e for _, e, f, _ in phase.windows),
        "wall_fps": statistics.median(f / w for w, _, f, _ in phase.windows),
        "latency_p50_ms": statistics.median(
            _window_quantiles_ms(lat, 0.5, ones)),
        "latency_p99_ms": _quieter(_window_quantiles_ms(lat, 0.99, ones)),
        "setup_s": statistics.median(raw_setups),
    }
    acc = check["accuracy"]
    values = {
        "served_fps": phase.served_fps,
        "wall_fps": phase.wall_fps,
        "latency_p50_ms": statistics.median(p50s),
        "latency_p99_ms": _quieter(p99s),
        "setup_s": statistics.median(setups),
        "rss_peak_mb": phase.rss_peak_mb,
        "rss_growth_mb": phase.rss_growth_mb,
        **{k: acc[k] for k in ("err_x_median_cm", "err_y_median_cm",
                               "err_z_median_cm", "mota", "motp_cm")},
    }
    samples = {
        "served_fps": phase.frames, "wall_fps": phase.frames,
        "latency_p50_ms": sum(map(len, lat)),
        "latency_p99_ms": sum(map(len, lat)),
        "setup_s": len(setups), "rss_peak_mb": 1, "rss_growth_mb": 1,
        **{k: acc["scored_frames"] for k in ("err_x_median_cm",
           "err_y_median_cm", "err_z_median_cm", "mota", "motp_cm")},
    }
    attempted = max(phase.offered, 1)
    return {
        "correct": check["correct"],
        "attempted": attempted,
        "failed": check["failed"],
        "metrics": {n: {"value": float(values[n]), "unit": u}
                    for n, u in END_TO_END},
        "report": {
            "samples": samples,
            "steps": phase.steps,
            "windows": len(phase.windows),
            "window_served_fps": [f / e / s for _, e, f, s in phase.windows],
            "window_wall_fps": [f / w / s for w, _, f, s in phase.windows],
            "window_p50_ms": p50s,
            "window_p99_ms": p99s,
            "window_speed": phase.speeds,
            "as_measured": raw,
            "measured_s": phase.wall_s,
            "setups_s": setups,
            "setups_raw_s": raw_setups,
            "failed_frac": check["failed"] / attempted,
            "identical": check["identical"],
            "id_switches": acc["id_switches"],
        },
    }


def _per_call(summary: dict, name: str, unit: float) -> float:
    """Mean span duration of ``name`` in ``unit`` per second; 0 if absent."""
    entry = summary.get(name)
    if not entry or not entry["calls"]:
        return 0.0
    return unit * entry["total_s"] / entry["calls"]


def _profile_ms(profile: dict, stage: str) -> float:
    entry = profile.get(stage)
    if not entry or not entry["calls"]:
        return 0.0
    return 1e3 * entry["wall_s"] / entry["calls"]


def _retained_bytes_per_frame(phase: Phase, steps: int) -> float:
    """Net bytes still allocated after ``steps`` more steps, per frame."""
    workload, client = phase.workload, phase.client
    frames0 = client.consumed
    workload.prefetch(steps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(steps):
            workload.step(client)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / max(client.consumed - frames0, 1)


def run_traced(name: str, seed: int, seconds: float, scale: Scale,
               out_dir: Path | None, perturb: bool = False) -> dict:
    """Untraced reference phase, then the traced phase, half each."""
    half = seconds / 2
    # The first engine of a process serves measurably slower on the
    # sharded workload (~35% lower served_fps); end-to-end runs measure
    # their last set-up, so both phases here follow a discarded one.
    _tear_down(set_up(name, seed, scale))
    reference = set_up(name, seed, scale)
    # Untraced and right after warm-up, while the per-session result
    # lists are short: their occasional resizes then average out.
    retained = _retained_bytes_per_frame(reference, scale.alloc_steps)
    measure(reference, half)
    _tear_down(reference)

    tracer = Tracer()
    enable_profiling(True)
    phase = None
    try:
        phase = set_up(name, seed, scale, tracer=tracer)
        measure(phase, half)
        detach(phase)
        profile = phase.engine.stage_profile().as_dict()
        profile_frames = phase.client.consumed
        report = (phase.engine.scheduler.shard_report()
                  if phase.engine.distributed else [])
        phase.client.tracer = tracer  # close spans, nothing below them
        phase.workload.finish(phase.client)
        phase.client.tracer = None
        check = _checked(phase, perturb)
    finally:
        reset_profiling_override()
        if phase is not None:
            release(phase)

    window = tracer.summary(phase.window_start, phase.window_end)
    everything = tracer.summary()
    workload, client = phase.workload, phase.client
    ticks = window.get("serve.tick", {}).get("calls", 0) or 1
    pipeline_calls = window.get("pipeline.tick", {}).get("calls", 0)
    step = window["step"]
    exec_bytes = exec_rounds = 0.0
    ipc_ms = shard_ms = 0.0
    if report:
        ipc_ms = float(np.mean([r["ipc_overhead_mean_ms"] for r in report]))
        shard_ms = float(np.mean([r["tick_p50_ms"] for r in report]))
        total_steps = sum(r["steps"] for r in report) or 1
        exec_bytes = sum(r["bytes_pickled"] + r["bytes_shm"]
                         for r in report) / total_steps
        exec_rounds = sum(r["descriptor_rounds"]
                          for r in report) / total_steps
    if workload.name == "single_synth":
        synth_ms = (_per_call(window, "sim.synth", 1e3)
                    / workload.scale.sessions)
    else:
        synth_ms = 1e3 * workload.synth_s / workload.synth_frames
    counts = phase.counts
    fused = profile.get("fused_tick", {})
    values = {
        "sim.synth_ms_per_frame": synth_ms,
        "serve.offer_us": _per_call(window, "serve.offer", 1e6),
        "serve.tick_ms": _per_call(window, "serve.tick", 1e3),
        "serve.sched_self_ms": 1e3 * window["serve.tick"]["self_s"] / ticks,
        "serve.frames_per_tick": phase.frames / ticks,
        "serve.queue_wait_ms": 1e3 * counts.get("serve.queue_wait_s", 0.0)
        / max(counts.get("serve.queued_frames", 0), 1),
        "serve.admit_ms": _per_call(everything, "serve.admit", 1e3),
        "serve.close_ms": _per_call(everything, "serve.close", 1e3),
        "serve.retained_bytes_per_frame": retained,
        "pipeline.tick_ms": _per_call(window, "pipeline.tick", 1e3),
        "pipeline.rows_per_call": (counts.get("pipeline.rows", 0)
                                   / max(pipeline_calls, 1)),
        "kernels.fused_tick_ms": _profile_ms(profile, "fused_tick"),
        "kernels.fused_cancel_ms": _profile_ms(profile, "fused_cancel"),
        "kernels.fused_associate_ms": _profile_ms(profile,
                                                  "fused_associate"),
        "kernels.bytes_per_frame": (fused.get("bytes", 0)
                                    / max(profile_frames, 1)),
        "multi.trackbank_step_ms": _per_call(window, "multi.trackbank_step",
                                             1e3),
        "multi.birth_solve_ms": _per_call(window, "multi.birth_solve", 1e3),
        "multi.birth_solves_per_tick": (counts.get("multi.birth_solves", 0)
                                        / max(pipeline_calls, 1)),
        "multi.births_per_session": workload.births_per_session(),
        "multi.id_switches": check["accuracy"]["id_switches"],
        "exec.ipc_ms_per_step": ipc_ms,
        "exec.shard_tick_ms": shard_ms,
        "exec.bytes_per_step": exec_bytes,
        "exec.round_trips_per_step": exec_rounds,
        "trace.unattributed_frac": step["self_s"] / step["total_s"],
        "trace.overhead_frac": 1.0 - phase.served_fps / reference.served_fps,
    }
    if out_dir is not None:
        tracer.write(out_dir / f"{name}-seed{seed}.spans.json")
    attempted = max(phase.offered, 1)
    return {
        "correct": check["correct"],
        "attempted": attempted,
        "failed": check["failed"],
        "metrics": {n: {"value": float(values[n]), "unit": u}
                    for n, u in PER_LAYER},
        "report": {
            "steps": phase.steps,
            "measured_s": phase.wall_s,
            "spans": len(tracer.names),
            "layers": window,
            "stage_profile": profile,
            "served_fps_untraced": reference.served_fps,
            "served_fps_traced": phase.served_fps,
            "identical": check["identical"],
        },
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: Scale | None = None, out_dir: Path | None = None,
        perturb: bool = False) -> dict:
    scale = scale or SCALES[name]
    allowed = os.sched_getaffinity(0)
    try:
        if WORKLOADS[name].one_cpu:
            # Shard workers fork from this process and inherit the mask.
            os.sched_setaffinity(0, {min(allowed)})
        if trace:
            return run_traced(name, seed, seconds, scale, out_dir, perturb)
        return run_end_to_end(name, seed, seconds, scale, perturb)
    finally:
        os.sched_setaffinity(0, allowed)
