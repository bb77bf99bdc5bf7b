"""Evaluation harness: metrics, experiment runner, and figure generators.

Reproduces the paper's Section 8-9 protocol: VICON-style ground truth,
per-person depth calibration, N experiments of free movement, and one
generator per published figure/table.
"""

from .metrics import (
    Cdf,
    ErrorSummary,
    classification_scores,
    error_cdf,
    summarize_errors,
)
from .harness import (
    ExperimentScale,
    TrackingExperiment,
    TrackingOutcome,
    current_scale,
    run_fall_experiment,
    run_pointing_experiment,
    run_tracking_experiment,
)
from . import figures
from .reporting import format_table, render_cdf, render_summary_rows

__all__ = [
    "Cdf",
    "ErrorSummary",
    "classification_scores",
    "error_cdf",
    "summarize_errors",
    "ExperimentScale",
    "TrackingExperiment",
    "TrackingOutcome",
    "current_scale",
    "run_fall_experiment",
    "run_pointing_experiment",
    "run_tracking_experiment",
    "figures",
    "format_table",
    "render_cdf",
    "render_summary_rows",
]
