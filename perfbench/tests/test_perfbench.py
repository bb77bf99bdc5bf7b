"""Self-test of the serving benchmark, every workload at a tiny scale.

Checks that a run names every metric of ``BENCHMARK.json`` with its
unit, that the correctness check catches a perturbed output, and that
accuracy repeats exactly for the same seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from servbench.calibrate import REFERENCE_S, speed  # noqa: E402
from servbench.env import refusal  # noqa: E402
from servbench.runner import run  # noqa: E402
from servbench.workloads import WORKLOADS, tiny  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SEED = 3
SECONDS = 0.2
ACCURACY = ("err_x_median_cm", "err_y_median_cm", "err_z_median_cm",
            "mota", "motp_cm")
NAMES = sorted(WORKLOADS)

_cache: dict[str, dict] = {}


def end_to_end(name: str) -> dict:
    if name not in _cache:
        _cache[name] = run(name, SEED, SECONDS, trace=False,
                           scale=tiny(name))
    return _cache[name]


def _units(result: dict) -> dict[str, str]:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "single_synth", "multi_churn", "shard_churn"
    ]
    assert set(NAMES) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run_emits_every_metric(name):
    result = end_to_end(name)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["end_to_end"]}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    assert result["metrics"]["setup_s"]["value"] > 0
    report = result["report"]
    assert set(report["as_measured"]) == {
        "served_fps", "wall_fps", "latency_p50_ms", "latency_p99_ms",
        "setup_s",
    }
    assert all(s > 0 for s in report["window_speed"])


def test_speed_rescales_against_the_reference():
    assert speed([REFERENCE_S]) == 1.0
    assert speed([REFERENCE_S / 2, REFERENCE_S * 2, REFERENCE_S]) == 1.0
    assert speed([2 * REFERENCE_S]) == 0.5


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_emits_every_layer_metric(name, tmp_path):
    result = run(name, SEED, SECONDS, trace=True, scale=tiny(name),
                 out_dir=tmp_path)
    assert result["correct"]
    assert _units(result) == {m["name"]: m["unit"]
                              for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["serve.tick_ms"] > 0
    assert 0 <= values["trace.unattributed_frac"] < 1
    spans = json.loads(
        (tmp_path / f"{name}-seed{SEED}.spans.json").read_text()
    )
    assert {"step", "serve.tick", "serve.offer"} <= set(spans["names"])


@pytest.mark.parametrize("name", NAMES)
def test_perturbed_output_fails_the_check(name):
    result = run(name, SEED, SECONDS, trace=False, scale=tiny(name),
                 perturb=True)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("name", NAMES)
def test_accuracy_repeats_for_the_same_seed(name):
    again = run(name, SEED, SECONDS, trace=False, scale=tiny(name))
    first = end_to_end(name)
    for metric in ACCURACY:
        assert again["metrics"][metric] == first["metrics"][metric]


def test_refuses_a_warm_cache(monkeypatch):
    assert refusal() is None
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert "REPRO_CACHE" in refusal()
