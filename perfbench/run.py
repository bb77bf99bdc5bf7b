"""Serving benchmark: one workload, one seed, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload single_synth --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced reference phase and a traced phase (half
the seconds each) and reports the per-layer metrics. Every run checks
one fixed session's served outputs bitwise against a serial reference
and scores accuracy against simulator truth.

Human-readable lines (fingerprint, each metric with its unit and sample
count) come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is nonzero when the correctness check fails. Span files and a
full JSON report go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

OUT_DIR = HERE / "out"


def _print_metrics(result: dict) -> None:
    samples = result["report"].get("samples", {})
    for name, metric in result["metrics"].items():
        n = samples.get(name)
        count = f"  (n={n})" if n is not None else ""
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}{count}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="change one served value before the "
                             "correctness check (tests the check)")
    args = parser.parse_args(argv)

    from servbench.env import fingerprint, refusal
    from servbench.runner import run
    from servbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    reason = refusal()
    if reason is not None:
        print(f"refusing to run: {reason}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    info = fingerprint(ROOT, args.workload, args.seed, workload.workers,
                       workload.one_cpu)
    print("fingerprint " + json.dumps(info, sort_keys=True))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=OUT_DIR, perturb=args.perturb)
    report = result.pop("report")
    report["fingerprint"] = info
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps({**result, "report": report}, indent=2, default=float)
    )

    kind = "per-layer (traced)" if args.trace else "end-to-end"
    windows = report.get("windows")
    print(f"{args.workload}: {kind}, {report['steps']} steps in "
          f"{report['measured_s']:.2f} s"
          + (f", rates and latency are medians over {windows} windows"
             if windows else ""))
    _print_metrics({**result, "report": report})
    if "as_measured" in report:
        print("  timing as measured, before rescaling to the reference "
              "host speed (servbench/calibrate.py):")
        for name, value in report["as_measured"].items():
            unit = result["metrics"][name]["unit"]
            print(f"    {name:<32} {value:>14.6g} {unit}")
    if "failed_frac" in report:
        print(f"  {'failed_frac':<34} {report['failed_frac']:>14.6g} ratio"
              f"  (n={result['attempted']})")
        print(f"  {'id_switches':<34} {report['id_switches']:>14d} count")
    print(f"  correctness: {'PASS' if result['correct'] else 'FAIL'} "
          f"(fixed session bitwise identical: {report['identical']})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
