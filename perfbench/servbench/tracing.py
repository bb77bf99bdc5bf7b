"""In-memory spans recorded at layer boundaries, from the benchmark side.

A :class:`Tracer` keeps every span (name, start, end, parent) in plain
lists until the run ends. Spans come from two places, both in this
process:

* the benchmark's own calls into the serving API (``step``, ``sim.synth``,
  ``serve.offer``, ``serve.tick``, ``serve.admit``, ``serve.close``);
* method wrappers that :func:`instrument` binds, for the duration of the
  traced phase, around public functions one layer down:
  ``Pipeline.tick`` (``pipeline.tick``), ``TrackBank.step``
  (``multi.trackbank_step``), the batched birth solve
  (``multi.birth_solve``) and the shard pool's ``submit``/``ready``/
  ``result`` (``exec.submit``, ``exec.ready``, ``exec.result``).

Shard workers fork before :func:`instrument` runs, so nothing is
recorded inside them. Spans inside fused tick plans are out of scope:
the kernel tier is read from ``engine.stage_profile()`` instead.

A span's self time is its duration minus the durations of its direct
children; the root ``step`` span's self time is the loop time no layer
claims (``trace.unattributed_frac``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """Append-only span store with a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]
        #: Free-form counters recorded at the same boundaries.
        self.counts: dict[str, float] = {}

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped__ = fn
        return traced

    def summary(self, since: float = float("-inf"),
                until: float = float("inf")) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds of the spans
        that started inside ``[since, until)``."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        duration = ends - starts
        parents = np.asarray(self.parents, dtype=np.intp)
        child_time = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], duration[has_parent])
        self_time = duration - child_time
        out: dict[str, dict[str, float]] = {}
        names = np.asarray(self.names)
        recent = (starts >= since) & (starts < until)
        for name in dict.fromkeys(self.names):
            mask = (names == name) & recent
            if not mask.any():
                continue
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        """Dump every span as JSON (times relative to the first span)."""
        table = list(dict.fromkeys(self.names))
        code = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [code[n], round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends,
                                  self.parents)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent"],
            "names": table,
            "spans": spans,
        }))


def _birth_solves(tof_slots) -> int:
    """Slots whose leftovers hold a candidate on every antenna (one
    localization batch row-set each, as ``candidate_fixes_batched``
    builds them)."""
    return sum(
        all(np.isfinite(np.asarray(t, dtype=np.float64)).any() for t in slot)
        for slot in tof_slots
    )


@contextmanager
def instrument(tracer: Tracer):
    """Bind span wrappers around one layer's public entry points.

    Restores every original on exit, so untraced phases run the
    unmodified code.
    """
    from repro.exec.pool import WorkerPool
    from repro.multi import tracks
    from repro.pipeline.runner import Pipeline

    originals = [
        (Pipeline, "tick", Pipeline.tick),
        (tracks.TrackBank, "step", tracks.TrackBank.step),
        (tracks, "candidate_fixes_batched", tracks.candidate_fixes_batched),
        (WorkerPool, "submit", WorkerPool.submit),
        (WorkerPool, "ready", WorkerPool.ready),
        (WorkerPool, "result", WorkerPool.result),
    ]
    pipeline_tick = tracer.wrap("pipeline.tick", Pipeline.tick)
    birth_solve = tracer.wrap("multi.birth_solve",
                              tracks.candidate_fixes_batched)

    def tick(self, sweep_blocks, slots=None):
        tracer.count("pipeline.rows", len(sweep_blocks))
        return pipeline_tick(self, sweep_blocks, slots)

    def births(tof_slots, *args, **kwargs):
        tracer.count("multi.birth_solves", _birth_solves(tof_slots))
        return birth_solve(tof_slots, *args, **kwargs)

    Pipeline.tick = tick
    tracks.TrackBank.step = tracer.wrap("multi.trackbank_step",
                                        tracks.TrackBank.step)
    tracks.candidate_fixes_batched = births
    WorkerPool.submit = tracer.wrap("exec.submit", WorkerPool.submit)
    WorkerPool.ready = tracer.wrap("exec.ready", WorkerPool.ready)
    WorkerPool.result = tracer.wrap("exec.result", WorkerPool.result)
    try:
        yield tracer
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
