"""Unified streaming pipeline engine: one stage graph for every tracker.

The paper's processing chain (background subtraction → contour tracking
→ outlier rejection → interpolation → Kalman smoothing → 3D
localization) used to exist three times with drifting semantics: offline
in ``WiTrack``, online in the realtime app, and again in the
multi-person tracker. This package is the single implementation all of
them now compose:

* :mod:`frame` — the :class:`Frame`/:class:`FrameBlock`/
  :class:`SessionTick` records stages communicate through;
* :mod:`stages` — the stateful single-person stages;
* :mod:`multi` — the multi-person stages (successive cancellation and
  track association);
* :mod:`runner` — the :class:`Pipeline` runner with its two execution
  modes, ``run_stream`` (frame-at-a-time, latency-accounted) and
  ``run_batch`` (block-vectorized), plus the stage-graph factories.

All modes drive the same stage objects — batch, streaming, and the
session-lockstep ``Pipeline.tick`` the serving engine
(:mod:`repro.serve`) batches N sessions through. Stage state is
structure-of-arrays over a session axis (``Stage.attach`` /
``Stage.evict``), so one pipeline instance advances any number of
independent sessions without a second code path.
"""

from .frame import Frame, FrameBlock, SessionTick
from .runner import (
    LatencyReport,
    Pipeline,
    PipelineResult,
    frame_average,
    multi_person_pipeline,
    single_person_pipeline,
)
from .stages import (
    BackgroundSubtract,
    ContourExtract,
    HoldInterpolate,
    KalmanSmooth,
    Localize,
    OutlierGate,
    Stage,
)
from .multi import Associate, SuccessiveCancel

__all__ = [
    "Frame",
    "FrameBlock",
    "SessionTick",
    "LatencyReport",
    "Pipeline",
    "PipelineResult",
    "frame_average",
    "single_person_pipeline",
    "multi_person_pipeline",
    "Stage",
    "BackgroundSubtract",
    "ContourExtract",
    "OutlierGate",
    "HoldInterpolate",
    "KalmanSmooth",
    "Localize",
    "SuccessiveCancel",
    "Associate",
]
